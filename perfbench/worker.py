"""One execution of one workload in a fresh interpreter.

Run by ``run.py`` as a child process, never imported by it:

    python3 perfbench/worker.py --workload simulate-128 --seed 7 \
        --workdir <dir> [--trace 1 [--spans <file>]] [--smoke] [--setup-only]

It times its own set-up (from its first statement, through ``import zklab``
and building the workload's inputs), then times one execution, then checks
the outputs with the clock stopped.  With ``--trace 1`` the zklab and
numpy.fft wrappers are installed around the execution only.  The last line
of standard output is a JSON object: setup_s, wall_s, ok, error, digest,
outputs, peak_rss_mb, platform and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, CheckFailed  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _platform(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS")}


def _execute(workload, inputs, args) -> dict:
    tracer = None
    if args.trace:
        from layers import per_layer
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    record = {"traced": tracer is not None, "ok": False}
    began = time.perf_counter()
    try:
        raw = workload.execute(inputs)
    except Exception:
        # A raising execution is a failed one; the parent keeps measuring.
        record["error"] = traceback.format_exc(limit=3)
    finally:
        record["wall_s"] = time.perf_counter() - began
        if tracer is not None:
            tracer.uninstall()
    if "error" not in record:
        try:
            outcome = workload.check(inputs, raw)
            record.update(ok=True, digest=outcome.digest,
                          outputs={k: list(v) for k, v in outcome.outputs.items()})
        except CheckFailed as exc:
            record["error"] = f"check failed: {exc}"
    if tracer is not None:
        record["layers"] = per_layer(tracer.spans, record["wall_s"])
        if args.spans:
            tracer.write_spans(args.spans)
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, SRC)
    import numpy
    import zklab

    src = os.path.realpath(SRC)
    if not os.path.realpath(zklab.__file__).startswith(src + os.sep):
        print(f"zklab imported from {zklab.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = workload.setup(args.seed, args.workdir, args.smoke)
    result = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        result.update(_execute(workload, inputs, args))
        result.update(platform=_platform(numpy),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if "error" in result:
            print(f"[{args.workload}] {result['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
