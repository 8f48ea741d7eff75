"""Self-tests of the benchmark, on the reduced-size (smoke) workloads.

    python3 perfbench/selftest.py

Checks, for every workload:

* an untraced run passes the output check and emits exactly the end-to-end
  metrics of BENCHMARK.json, each with its unit;
* two traced runs, in fresh interpreters, emit exactly the per-layer metrics
  of BENCHMARK.json with their units, repeat the exact counts
  (fft.calls, fft.points, forms.omega.calls, dynamics.step_etdrk4.calls,
  dynamics.max_dispersion.calls), and give the same output_digest as the
  untraced run;

and further:

* on simulate-128, the tracer's FFT and omega calls per ETDRK4 step equal an
  independent count taken by patching numpy.fft directly;
* on ensemble, dynamics.step_etdrk4.calls is 0;
* without zklab's sources next to it, run.py exits non-zero and prints no
  result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import FFT_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATED_COUNTS = ("fft.calls", "fft.points", "forms.omega.calls",
                   "dynamics.step_etdrk4.calls", "dynamics.max_dispersion.calls")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _declared(section: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _emitted(record: dict) -> dict:
    return {k: v["unit"] for k, v in record["result"]["metrics"].items()}


def _independent_step_counts() -> tuple[float, float]:
    """FFT and omega calls of one ETDRK4 step, counted without the tracer."""
    sys.path.insert(0, run.SRC)
    import numpy as np
    import zklab

    grid = zklab.make_grid(32, 32, 2 * math.pi, 2 * math.pi)
    u0 = zklab.random_band_limited(grid, seed=7, kmax=6.0, amplitude=0.3)
    form = zklab.DispersionForm.ORIGINAL
    state = zklab.SolverState(u0.spectral(), 0.0, 1e-3, form)
    tableau = zklab.etdrk4_tableau(grid, 1e-3, form)
    counts = {"fft": 0, "omega": 0}
    saved = {name: getattr(np.fft, name) for name in FFT_NAMES}
    omega = zklab.DispersionForm.omega

    def counting(fn, key):
        def inner(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return inner

    try:
        for name, fn in saved.items():
            setattr(np.fft, name, counting(fn, "fft"))
        zklab.DispersionForm.omega = counting(omega, "omega")
        zklab.step_etdrk4(state, tableau)
    finally:
        for name, fn in saved.items():
            setattr(np.fft, name, fn)
        zklab.DispersionForm.omega = omega
    return float(counts["fft"]), float(counts["omega"])


def check_workload(name: str) -> None:
    print(f"{name}:")
    seed = WORKLOADS[name].default_seed
    plain = run.run_workload(name, seed, 0.0, 0, smoke=True)
    result = plain["result"]
    expect(result["correct"] and result["failed"] == 0,
           f"{name}: smoke run passes the output check ({plain['problems']})")
    expect(_emitted(plain) == _declared("end_to_end"),
           f"{name}: end-to-end metrics and units match BENCHMARK.json")
    expect(len(plain["output_digest"]) == 1,
           f"{name}: output_digest repeats across executions")

    traced = [run.run_workload(name, seed, 0.0, 1, smoke=True) for _ in range(2)]
    for rec in traced:
        expect(rec["result"]["correct"], f"{name}: traced run is correct ({rec['problems']})")
        expect(_emitted(rec) == _declared("per_layer"),
               f"{name}: per-layer metrics and units match BENCHMARK.json")
        expect(rec["output_digest"] == plain["output_digest"],
               f"{name}: traced output_digest equals the untraced one")
    first, second = (rec["result"]["metrics"] for rec in traced)
    for key in REPEATED_COUNTS:
        expect(first[key]["value"] == second[key]["value"],
               f"{name}: {key} repeats across runs ({first[key]['value']})")

    if name == "simulate-128":
        ffts, omegas = _independent_step_counts()
        got_fft = first["dynamics.step_etdrk4.fft_calls_per_step"]["value"]
        got_omega = first["dynamics.step_etdrk4.omega_calls_per_step"]["value"]
        expect(got_fft == ffts, f"{name}: FFT calls per step {got_fft} == independent {ffts}")
        expect(got_omega == omegas,
               f"{name}: omega calls per step {got_omega} == independent {omegas}")
    if name == "ensemble":
        expect(first["dynamics.step_etdrk4.calls"]["value"] == 0,
               f"{name}: dynamics.step_etdrk4.calls == 0")


def check_without_sources() -> None:
    print("without zklab sources:")
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "simulate-128", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"run.py exits {proc.returncode} and prints no result")


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    check_without_sources()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
