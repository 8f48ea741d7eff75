"""Experiment driver: one subcommand per workflow, deterministic artifacts.

Exit codes: 0 success, 2 configuration error, 3 numerical instability
(the last finite diagnostics row is flushed first), 4 I/O failure.
Output directory resolution: --output-dir flag, else ZKLAB_OUTPUT_DIR,
else the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .config import RunConfig, load_config
from .dynamics import evolve
from .errors import (ConfigurationError, DataError, InstabilityError,
                     ResolutionError, UsageError)
from .forms import DispersionForm
from .ic import make_initial
from .imethod import gwp_iteration, increment_scan
from .norms import NormReport, besov_norm_2_1, lebesgue_norm, sobolev_norm
from .picard import picard_horizon, picard_iterate
from . import probes
from .reporting import (DiagnosticsRecorder, build_manifest, read_frame_csv,
                        write_csv, write_frame_csv, write_json)
from .spectral import Grid2D

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zklab",
        description="Pseudospectral lab for the 2D Zakharov-Kuznetsov equation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = RunConfig()
    choices = {"form": [f.value for f in DispersionForm],
               "estimate": [*_PROBES, "cutoff"], "norm_name": list(_NORMS)}
    for name, (_, summary, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat-key JSON config file")
        for flag, key in _flags(name).items():
            kind = type(getattr(defaults, key))
            if kind is bool:
                p.add_argument(f"--{flag}", dest=key, action="store_true", default=None)
            else:
                p.add_argument(f"--{flag}", dest=key, choices=choices.get(key),
                               type=kind if kind in (int, float) else None)
    parser.subcommands = sub.choices  # for main to refuse unread flags with their usage
    return parser


def _flags(subcommand: str) -> dict:
    """Flag -> RunConfig key, for each key the subcommand reads."""
    specs = (spec.partition("=") for spec in ("output-dir", *_SUBCOMMANDS[subcommand][2]))
    return {flag: key or flag.replace("-", "_") for flag, _, key in specs}


def _config_from_args(args) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("config", "subcommand") and v is not None}
    return load_config(args.config, overrides, args.subcommand,
                       _flags(args.subcommand).values())


def _output_dir(config: RunConfig) -> str:
    return config.output_dir or os.environ.get("ZKLAB_OUTPUT_DIR") or os.getcwd()


def _grid(config: RunConfig) -> Grid2D:
    return Grid2D(config.nx, config.resolved_ny(), config.lx, config.resolved_ly())


def _initial(config: RunConfig, grid: Grid2D):
    params: dict = {}
    if config.preset == "gaussian":
        params = {"amplitude": config.amplitude, "sigma": config.sigma}
    elif config.preset == "cosine-mode":
        params = {"amplitude": config.amplitude, "jx": config.jx, "jy": config.jy}
    elif config.preset == "random":
        params = {"seed": config.seed, "amplitude": config.amplitude}
        if config.kmax:
            params["kmax"] = config.kmax
        if config.envelope:
            params["envelope"] = config.envelope
        if config.norm:
            params["norm"] = config.norm
            params["norm_s"] = config.norm_s
    return make_initial(grid, config.preset, **params)


def _finish(subcommand: str, config: RunConfig, outdir: str, started: float,
            outputs: list[str], extra: dict) -> None:
    keys = _flags(subcommand).values()
    echoed = {k: v for k, v in config.to_dict().items() if k in keys}
    echo = os.path.join(outdir, "config.json")
    write_json(echo, echoed)
    manifest = build_manifest(subcommand, echoed,
                              time.monotonic() - started,
                              [os.path.basename(p) for p in outputs + [echo]],
                              extra)
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def _run_simulate(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    grid = _grid(config)
    u0 = _initial(config, grid)
    form = DispersionForm.parse(config.form)
    recorder = DiagnosticsRecorder(form)
    try:
        traj = evolve(u0, config.t_final, config.dt, form,
                      sample_every=config.sample_every, diagnostics=recorder)
    except InstabilityError:
        if recorder.rows:
            write_csv(os.path.join(outdir, "diagnostics.csv"),
                      DiagnosticsRecorder.HEADER, recorder.rows)
        raise
    outputs = [os.path.join(outdir, "diagnostics.csv"),
               os.path.join(outdir, "frame_final.csv")]
    write_csv(outputs[0], DiagnosticsRecorder.HEADER, recorder.rows)
    write_frame_csv(outputs[1], traj.frame(-1))
    if config.dump_frames:
        for idx in range(traj.num_frames):
            path = os.path.join(outdir, f"frame_{idx:05d}.csv")
            write_frame_csv(path, traj.frame(idx))
            outputs.append(path)
    return outputs, {"num_frames": traj.num_frames}


def _run_picard(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    grid = _grid(config)
    u0 = _initial(config, grid)
    horizon = config.horizon or picard_horizon(besov_norm_2_1(u0, 0.5), config.c0)
    form = DispersionForm.parse(config.form)
    result = picard_iterate(u0, horizon, config.n_iter, form,
                            num_nodes=config.num_nodes)
    rows = [(n, result.diffs[n], result.ratios[n] if n < len(result.ratios) else "")
            for n in range(len(result.diffs))]
    out = os.path.join(outdir, "picard.csv")
    write_csv(out, ["iteration", "difference (Y-proxy norm)", "ratio"], rows)
    return [out], {"horizon": horizon, "contraction_failed": result.contraction_failed}


def _run_scan(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    grid = _grid(config)
    u0 = _initial(config, grid)
    result = increment_scan(u0, config.s, config.n_list, config.delta, config.dt)
    out = os.path.join(outdir, "imethod_scan.csv")
    write_csv(out, ["N (dyadic block)", "abs_increment (modified energy)"],
              result.rows)
    return [out], {"slope": result.slope, "caveat": result.caveat}


def _run_gwp(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    grid = _grid(config)
    u0 = _initial(config, grid)
    ledger = gwp_iteration(u0, config.s, config.t_target, delta=config.delta,
                           dt=config.dt,
                           n=config.n_block or None,
                           max_windows=config.max_windows)
    out = os.path.join(outdir, "gwp_ledger.json")
    write_json(out, dataclasses.asdict(ledger))
    return [out], {"status": ledger.status}


def _window(c: RunConfig) -> dict:
    return {"samples": c.samples, "seed": c.seed, "span": c.span, "frames": c.frames}


_PROBES = {
    "strichartz": lambda c, g: probes.strichartz_probe(c.q, c.r, g, **_window(c)),
    "maximal": lambda c, g: probes.maximal_derivative_probe(g, **_window(c)),
    "bilinear": lambda c, g: probes.bilinear_probe(c.n1, c.n2, g, **_window(c)),
    "gh-bilinear": lambda c, g: probes.gh_bilinear_probe(c.n1, c.n2, g, **_window(c)),
    "l4": lambda c, g: probes.l4_probe(g, **_window(c)),
    "trilinear": lambda c, g: probes.trilinear_form_probe(
        c.n1, c.n2, c.n3, c.t_length, g, samples=c.samples, seed=c.seed,
        num_steps=c.num_steps or None),
}


def _run_probe(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    grid, kind = _grid(config), config.estimate
    out = os.path.join(outdir, "probe.csv")
    if kind == "cutoff":
        rows, report = probes.cutoff_probe(config.t_grid, config.l_grid)
    else:
        if kind not in _PROBES:
            raise ConfigurationError(f"unknown estimate {kind!r}")
        report = _PROBES[kind](config, grid)
        rows = [report.to_row()]
    write_csv(out, list(rows[0]), rows)
    return [out], {"drift": report.drift, "estimate": report.estimate}


# norm name -> NormReport of (name, field, config)
_NORMS = {
    "sobolev": lambda n, f, c: NormReport(n, sobolev_norm(f, c.s), {"s": c.s}, ""),
    "homogeneous-sobolev": lambda n, f, c: NormReport(
        n, sobolev_norm(f, c.s, homogeneous=True), {"s": c.s},
        "seminorm: zero mode dropped"),
    "besov": lambda n, f, c: NormReport(f"{n}-2-1", besov_norm_2_1(f, c.s),
                                        {"s": c.s}, ""),
    "lebesgue": lambda n, f, c: NormReport(n, lebesgue_norm(f, c.p), {"r": c.p}, ""),
}


def _run_norms(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    if not config.input:
        raise ConfigurationError("config key 'input': a frame file is required")
    field = read_frame_csv(config.input)
    name = config.norm_name
    if name not in _NORMS:
        raise ConfigurationError(f"unknown norm {name!r}")
    report = _NORMS[name](name, field, config)
    out = os.path.join(outdir, "norms.csv")
    row = report.to_row()
    write_csv(out, list(row), [row])
    print(f"{report.name} = {report.value:.17g}")
    return [out], {"value": report.value}


# subcommand -> (runner, help line, the keys the runner reads), which are its
# flags after --config and --output-dir, the keys load_config accepts for it and
# the keys _finish echoes.  A key is given as its flag, or "flag=key" where the
# key is not the flag with dashes turned into underscores; the argparse type is
# the default's (int, float; else a string for load_config to coerce).  A runner
# writes its files and returns (output paths, manifest extras) for _finish.
_GRID = ("nx", "ny", "lx", "ly")
_DATA = ("seed", "preset", "amplitude", "sigma", "jx", "jy", "kmax", "envelope",
         "norm", "norm-s")
_SUBCOMMANDS = {
    "simulate": (_run_simulate, "time-step an initial condition",
                 (*_GRID, "form", *_DATA, "T=t_final", "dt", "sample-every",
                  "dump-frames")),
    "picard": (_run_picard, "Duhamel fixed-point iteration",
               (*_GRID, "form", *_DATA, "horizon", "n-iter", "num-nodes", "c0")),
    # the I-method runs the original form, so these two take no --form
    "imethod-scan": (_run_scan, "modified-energy increments over N",
                     (*_GRID, *_DATA, "s", "N-list=n_list", "delta", "dt")),
    "gwp": (_run_gwp, "rescale-and-iterate globalization run",
            (*_GRID, *_DATA, "s", "T=t_target", "delta", "dt", "N=n_block",
             "max-windows")),
    "probe": (_run_probe, "randomized estimate probes",
              (*_GRID, "seed", "estimate", "q", "r", "N1=n1", "N2=n2", "N3=n3",
               "samples", "span", "frames", "T-grid=t_grid", "L-grid=l_grid",
               "T=t_length", "num-steps")),
    "norms": (_run_norms, "norms of a stored frame", ("input", "norm-name", "s", "p")),
}


def main(argv=None) -> int:
    parser = _parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # the subcommand's parser refuses them, so its usage names its flags
        parser.subcommands[args.subcommand].error(f"unrecognized arguments: {' '.join(unread)}")
    started = time.monotonic()
    try:
        config = _config_from_args(args)
        outdir = _output_dir(config)
        os.makedirs(outdir, exist_ok=True)
        outputs, extra = _SUBCOMMANDS[args.subcommand][0](config, outdir)
        _finish(args.subcommand, config, outdir, started, outputs, extra)
    except (ConfigurationError, UsageError, ResolutionError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        if exc.last_diagnostics:
            print(f"last diagnostics: {exc.last_diagnostics}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
