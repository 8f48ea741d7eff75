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
from .dynamics import _states
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
from .spectral import Field, Grid2D

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zklab",
        description="Pseudospectral lab for the 2D Zakharov-Kuznetsov equation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = RunConfig()
    choices = {"form": [f.value for f in DispersionForm],
               "estimate": list(_PROBES), "norm_name": list(_NORMS)}
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


def _config_from_args(args) -> tuple[RunConfig, tuple]:
    """The run's config and the keys it reads: its subcommand's, or a probe's estimate's."""
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("config", "subcommand") and v is not None}
    keys = tuple(_flags(args.subcommand).values())
    config = load_config(args.config, overrides, args.subcommand, keys)
    if args.subcommand == "probe":  # a second pass, once the first has resolved the estimate
        if config.estimate not in _PROBES:
            raise ConfigurationError(f"unknown estimate {config.estimate!r}")
        keys = ("output_dir", "estimate", *_PROBES[config.estimate][1])
        config = load_config(args.config, overrides, f"probe --estimate {config.estimate}", keys)
    return config, keys


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


def _finish(subcommand: str, config: RunConfig, keys: tuple, outdir: str, started: float,
            outputs: list[str], extra: dict) -> None:
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
    outputs = [os.path.join(outdir, "diagnostics.csv"),
               os.path.join(outdir, "frame_final.csv")]

    def frame(state):
        return Field(grid, grid.full_spectrum(state.band), "spectral")

    try:  # rows and frames stream as sampled; an instability flushes the rows so far
        for idx, state in enumerate(_states(u0, config.t_final, config.dt, form,
                                            config.sample_every)):
            recorder(state)
            if config.dump_frames:
                outputs.append(os.path.join(outdir, f"frame_{idx:05d}.csv"))
                write_frame_csv(outputs[-1], frame(state))
    finally:
        if recorder.rows:
            write_csv(outputs[0], DiagnosticsRecorder.HEADER, recorder.rows)
    write_frame_csv(outputs[1], frame(state))
    return outputs, {"num_frames": idx + 1}


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


def _run_probe(config: RunConfig, outdir: str) -> tuple[list[str], dict]:
    probe, keys = _PROBES[config.estimate]
    out = os.path.join(outdir, "probe.csv")
    if config.estimate == "cutoff":
        rows, report = probe(t_values=config.t_grid, l_values=config.l_grid)
    else:
        args = {k: getattr(config, k) for k in keys if k not in _GRID}
        if "num_steps" in args:  # 0 means None: trilinear resolves its own step count
            args["num_steps"] = args["num_steps"] or None
        report = probe(grid=_grid(config), **args)
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
# the keys _finish echoes (a probe's are its estimate's, from _PROBES, and probe's
# flags their union).  A key is given as its flag, or "flag=key" where the key is
# not the flag with dashes turned into underscores; the argparse type is the
# default's (int, float; else a string for load_config to coerce).  A runner
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


# estimate -> (probe, the keys it reads besides estimate and output_dir): the keys
# load_config accepts, _finish echoes and _run_probe passes, the grid's as the grid
# and the rest by name (cutoff's as t_values, l_values; trilinear's num_steps 0 as None).
_WINDOW = ("samples", "seed", "span", "frames")
_PROBES = {
    "strichartz": (probes.strichartz_probe, (*_GRID, "q", "r", *_WINDOW)),
    "maximal": (probes.maximal_derivative_probe, (*_GRID, *_WINDOW)),
    "bilinear": (probes.bilinear_probe, (*_GRID, "n1", "n2", *_WINDOW)),
    "gh-bilinear": (probes.gh_bilinear_probe, (*_GRID, "n1", "n2", *_WINDOW)),
    "l4": (probes.l4_probe, (*_GRID, *_WINDOW)),
    "trilinear": (probes.trilinear_form_probe,
                  (*_GRID, "n1", "n2", "n3", "t_length", "samples", "seed", "num_steps")),
    "cutoff": (probes.cutoff_probe, ("t_grid", "l_grid")),
}


def main(argv=None) -> int:
    parser = _parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # the subcommand's parser refuses them, so its usage names its flags
        parser.subcommands[args.subcommand].error(f"unrecognized arguments: {' '.join(unread)}")
    started = time.monotonic()
    try:
        config, keys = _config_from_args(args)
        outdir = _output_dir(config)
        os.makedirs(outdir, exist_ok=True)
        outputs, extra = _SUBCOMMANDS[args.subcommand][0](config, outdir)
        _finish(args.subcommand, config, keys, outdir, started, outputs, extra)
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
