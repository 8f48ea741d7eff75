"""The benchmark's four workloads: inputs from a seed, one execution, its check.

Each workload has three parts:

* ``setup(seed, workdir, smoke)`` builds the inputs (grid, initial data,
  argv).  It is timed as part of ``setup_s``, together with ``import zklab``.
* ``execute(inputs)`` is one timed execution.  It looks every zklab function
  up through its module at call time, so that the wrappers a traced run
  installs are the ones called.
* ``check(inputs, raw)`` runs after the clock stops.  It raises
  ``CheckFailed`` when an output is wrong and otherwise returns an
  ``Outcome``: the digest of the result bodies and the accuracy outputs.

``smoke=True`` shrinks every workload to a size that runs in about a second;
the self-tests use it.  The shapes and calls stay the same.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Any, Callable

# Criterion-2 budgets of the acceptance suite, applied to every execution of
# the two original-form workloads.
MASS_DRIFT_BUDGET = 1e-8
ENERGY_DRIFT_BUDGET = 1e-6

# Report fields enter the digest rounded to this many significant digits.
DIGEST_DIGITS = 12


class CheckFailed(Exception):
    """An execution produced a wrong or non-finite output."""


@dataclass
class Outcome:
    digest: str
    outputs: dict  # name -> (value, unit)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    held_out_seed: int
    setup: Callable[[int, str, bool], dict]
    execute: Callable[[dict], Any]
    check: Callable[[dict, Any], Outcome]


# -- helpers -----------------------------------------------------------------------

def _rounded(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return format(float(value), f".{DIGEST_DIGITS}g")
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_rounded(v) for v in value) + ")"
    return str(value)


def _report_text(row: dict) -> str:
    return ";".join(f"{key}={_rounded(row[key])}" for key in sorted(row))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _require_finite(what: str, values) -> None:
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        if not math.isfinite(v):
            raise CheckFailed(f"{what}: non-finite value {v!r}")


def _require_finite_row(what: str, row: dict) -> None:
    flat = []
    for v in row.values():
        flat.extend(v if isinstance(v, (tuple, list)) else [v])
    _require_finite(what, flat)


def _body(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _csv_numbers(path: str) -> list[list[float]]:
    """Numeric rows of a zklab CSV (header and '#' lines skipped, blanks kept out)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        next(reader, None)
        for cells in reader:
            rows.append([float(c) for c in cells if c != ""])
    return rows


def _frame_numbers(path: str) -> list[float]:
    with open(path) as fh:
        return [float(tok) for line in fh if not line.startswith("#")
                for tok in line.strip().split(",") if tok]


def _drift(series) -> float:
    """max |X(t) - X(0)| / |X(0)| over the sampled times."""
    x0 = series[0]
    if x0 == 0:
        raise CheckFailed("initial invariant is zero; relative drift undefined")
    return max(abs(x - x0) for x in series) / abs(x0)


def _conservation(mass_series, energy_series) -> dict:
    mass_drift = _drift(mass_series)
    energy_drift = _drift(energy_series)
    if not mass_drift <= MASS_DRIFT_BUDGET:
        raise CheckFailed(f"mass_drift {mass_drift:.3g} > {MASS_DRIFT_BUDGET:g}")
    if not energy_drift <= ENERGY_DRIFT_BUDGET:
        raise CheckFailed(f"energy_drift {energy_drift:.3g} > {ENERGY_DRIFT_BUDGET:g}")
    return {"mass_drift": (mass_drift, "1"), "energy_drift": (energy_drift, "1")}


def _outdir(workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    os.makedirs(path, exist_ok=True)
    return path


def _box(nx: int):
    import zklab

    return zklab.make_grid(nx, nx, 2.0 * math.pi, 2.0 * math.pi)


# -- simulate-128 ------------------------------------------------------------------

def _simulate_setup(seed: int, workdir: str, smoke: bool) -> dict:
    import zklab.cli  # noqa: F401  (loaded by the console script before main runs)

    nx, t_final, every = ("32", "0.05", "10") if smoke else ("128", "0.5", "100")
    outdir = _outdir(workdir, "simulate")
    argv = ["simulate", "--nx", nx, "--preset", "random", "--seed", str(seed),
            "--kmax", "10", "--envelope", "3", "--amplitude", "0.3",
            "--T", t_final, "--dt", "0.001", "--sample-every", every,
            "--output-dir", outdir]
    return {"argv": argv, "outdir": outdir}


def _simulate_execute(inputs: dict):
    import zklab.cli

    return zklab.cli.main(inputs["argv"])


def _simulate_check(inputs: dict, code) -> Outcome:
    if code != 0:
        raise CheckFailed(f"zklab simulate exited with {code}")
    diag = os.path.join(inputs["outdir"], "diagnostics.csv")
    final = os.path.join(inputs["outdir"], "frame_final.csv")
    rows = _csv_numbers(diag)
    for row in rows:
        _require_finite("diagnostics.csv", row)
    _require_finite("frame_final.csv", _frame_numbers(final))
    outputs = _conservation([r[1] for r in rows], [r[2] for r in rows])
    return Outcome(_digest([_body(diag), _body(final)]), outputs)


# -- imethod-64 --------------------------------------------------------------------

def _imethod_setup(seed: int, workdir: str, smoke: bool) -> dict:
    import zklab

    grid = _box(32 if smoke else 64)
    u0 = zklab.random_band_limited(grid, seed=seed, kmax=6.0, norm="sobolev",
                                   norm_s=1.0, amplitude=1.0)
    return {"u0": u0, "t_final": 0.02 if smoke else 0.5, "dt": 1e-3}


def _imethod_execute(inputs: dict):
    import zklab

    recorder = zklab.DiagnosticsRecorder()
    traj = zklab.evolve(inputs["u0"], inputs["t_final"], inputs["dt"],
                        zklab.DispersionForm.ORIGINAL, sample_every=1,
                        diagnostics=recorder)
    report = zklab.increment_identity_check(traj, zklab.IMultiplier(0.9, 4.0))
    return recorder.rows, report


def _imethod_check(inputs: dict, raw) -> Outcome:
    rows, report = raw
    for row in rows:
        _require_finite("diagnostics rows", row)
    fields = asdict(report)
    _require_finite_row("IncrementReport", fields)
    outputs = _conservation([r[1] for r in rows], [r[2] for r in rows])
    outputs["increment_residual"] = (report.residual, "1")
    parts = [_report_text(fields)] + [_rounded(row) for row in rows]
    return Outcome(_digest(parts), outputs)


# -- trilinear-64 ------------------------------------------------------------------

def _trilinear_setup(seed: int, workdir: str, smoke: bool) -> dict:
    if smoke:
        return {"grid": _box(32), "seed": seed, "samples": 1, "num_steps": 64}
    return {"grid": _box(64), "seed": seed, "samples": 2, "num_steps": None}


def _trilinear_execute(inputs: dict):
    import zklab.probes

    return zklab.probes.trilinear_form_probe(
        8.0, 2.0, 8.0, 0.125, inputs["grid"], samples=inputs["samples"],
        seed=inputs["seed"], num_steps=inputs["num_steps"])


def _probe_outputs(prefix: str, report) -> dict:
    # Probe drifts are recorded, not gated: the criterion-10 bounds (2.0 and
    # 3.0) are for the 8-sample medians of the acceptance suite, and these
    # workloads draw fewer samples.
    return {f"{prefix}.ratio": (report.ratio, "1"),
            f"{prefix}.drift": (report.drift, "1")}


def _trilinear_check(inputs: dict, report) -> Outcome:
    row = report.to_row()
    _require_finite_row("trilinear report", row)
    return Outcome(_digest([_report_text(row)]), _probe_outputs("trilinear", report))


# -- ensemble ----------------------------------------------------------------------

def _ensemble_setup(seed: int, workdir: str, smoke: bool) -> dict:
    import zklab.cli  # noqa: F401

    outdir = _outdir(workdir, "picard")
    if smoke:
        small, large, samples, gh_samples = _box(32), _box(64), 2, 1
        nx, n_iter, nodes = "16", "3", "17"
    else:
        small, large, samples, gh_samples = _box(64), _box(128), 8, 2
        nx, n_iter, nodes = "32", "6", "65"
    argv = ["picard", "--nx", nx, "--kmax", "4", "--amplitude", "0.05",
            "--seed", str(seed), "--n-iter", n_iter, "--num-nodes", nodes,
            "--output-dir", outdir]
    return {"small": small, "large": large, "samples": samples,
            "gh_samples": gh_samples, "seed": seed, "argv": argv, "outdir": outdir}


def _ensemble_execute(inputs: dict):
    import zklab.cli
    import zklab.probes

    probes = zklab.probes
    small, seed, samples = inputs["small"], inputs["seed"], inputs["samples"]
    reports = {
        "strichartz": probes.strichartz_probe(6.0, 4.0, small, samples=samples,
                                              seed=seed),
        "l4": probes.l4_probe(small, samples=samples, seed=seed),
        "gh_bilinear": probes.gh_bilinear_probe(8.0, 8.0, inputs["large"],
                                                samples=inputs["gh_samples"],
                                                seed=seed),
    }
    return reports, zklab.cli.main(inputs["argv"])


def _ensemble_check(inputs: dict, raw) -> Outcome:
    reports, code = raw
    if code != 0:
        raise CheckFailed(f"zklab picard exited with {code}")
    with open(os.path.join(inputs["outdir"], "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("contraction_failed") is not False:
        raise CheckFailed("picard manifest reports contraction_failed")
    table = os.path.join(inputs["outdir"], "picard.csv")
    for row in _csv_numbers(table):
        _require_finite("picard.csv", row)
    parts, outputs = [], {}
    for name, report in reports.items():
        row = report.to_row()
        _require_finite_row(f"{name} report", row)
        parts.append(_report_text(row))
        outputs.update(_probe_outputs(name, report))
    parts.append(_body(table))
    return Outcome(_digest(parts), outputs)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="simulate-128",
        why=("The main user path, zklab simulate at 128^2 for 500 ETDRK4 steps; "
             "the stepper does ~97% of the work, so it isolates the step kernel."),
        default_seed=7, held_out_seed=1007,
        setup=_simulate_setup, execute=_simulate_execute, check=_simulate_check),
    Workload(
        name="imethod-64",
        why=("The same evolve loop at 64^2 with every frame analysed, so the "
             "diagnostics callback and the factored Lambda3/Lambda4 forms dominate."),
        default_seed=5, held_out_seed=1005,
        setup=_imethod_setup, execute=_imethod_execute, check=_imethod_check),
    Workload(
        name="trilinear-64",
        why=("The criterion-10 trilinear probe: 3,072 small symmetrized steps at "
             "64^2 and 128^2, where per-step overhead dominates and batching shows."),
        default_seed=0, held_out_seed=1000,
        setup=_trilinear_setup, execute=_trilinear_execute, check=_trilinear_check),
    Workload(
        name="ensemble",
        why=("Free-wave probe ensembles and Picard iteration, which never step, "
             "so a stepper change must read no change here."),
        default_seed=0, held_out_seed=1000,
        setup=_ensemble_setup, execute=_ensemble_execute, check=_ensemble_check),
)}
