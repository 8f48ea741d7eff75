"""zklab benchmark: run a workload in fresh single-threaded interpreters.

    python3 perfbench/run.py --workload simulate-128 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all four workloads, default seeds
    python3 perfbench/run.py --smoke         # reduced sizes, for the self-tests

Workloads: simulate-128, imethod-64, trilinear-64, ensemble (see NOTES.md).
One run of a workload starts interpreters one at a time, each with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1:

1. a warm-up interpreter that imports zklab and builds the inputs, so that
   bytecode and file caches are as a user's second run finds them; not timed;
2. measuring interpreters, each timing its own ``setup_s`` (import zklab and
   build the inputs) and then one execution (``run_s``), until ``--seconds``
   is spent, and at least three of them;
3. set-up-only interpreters, if needed to reach five ``setup_s`` samples.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported.  With ``--trace 1`` the measuring interpreters alternate untraced
and traced executions and the per-layer metrics are reported.  Every
execution's outputs are checked, and its output digest must equal every
other execution's.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(platform, every sample, accuracy outputs, digests) goes to
``.perfbench_out/`` at the repository root; a traced run also writes the
spans of its last traced execution there.

Exit codes: 0 with a result printed (``correct`` says whether every check
passed), 2 when zklab's sources are not next to the benchmark, 1 when a
child interpreter fails or times out.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from layers import EXACT, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_EXECUTIONS = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}  # name -> unit
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _child(argv: list[str], timeout: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {argv}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {argv}")
    return json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _host() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        suffix = {"Data": "d", "Instruction": "i"}.get(_read(f"{index}/type"), "")
        caches[f"L{_read(f'{index}/level')}{suffix}"] = _read(f"{index}/size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches}


def _spread(values: list[float]) -> dict:
    """Median, quartiles, sample count and, once there are enough samples,
    the highest whole percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        pct = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def _per_layer(executions: list[dict]) -> tuple[dict, list[str]]:
    runs = [e["layers"] for e in executions if e["traced"]]
    problems = []
    metrics = {}
    for name in metric_units():
        if name == "trace.overhead_frac":
            continue
        values = [run[name] for run in runs]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced executions: {values}")
        metrics[name] = values[0] if name in EXACT else statistics.median(values)
    traced = [e["wall_s"] for e in executions if e["traced"]]
    plain = [e["wall_s"] for e in executions if not e["traced"]]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, problems


def _executions(common: list[str], seconds: float, trace: int, spans: str) -> list[dict]:
    """Fresh interpreters, one execution each, until the time budget is spent.

    Another execution starts only if the mean time per interpreter so far says
    it ends within ``seconds``; at least MIN_EXECUTIONS run.  A traced run
    alternates untraced and traced interpreters, starting untraced.
    """
    executions = []
    start = time.perf_counter()
    while True:
        traced = trace and len(executions) % 2 == 1
        extra = ["--trace", "1", "--spans", spans] if traced else []
        executions.append(_child(common + extra, timeout=CHILD_TIMEOUT))
        elapsed = time.perf_counter() - start
        if (len(executions) >= MIN_EXECUTIONS
                and elapsed * (1 + 1 / len(executions)) > seconds):
            return executions


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    common += ["--smoke"] if smoke else []
    label = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    spans = os.path.join(OUT, f"spans-{label}.jsonl.gz")
    try:
        # Warm-up: compiles bytecode and fills the file cache, as any second
        # run on a user's machine finds them.  Not timed.
        _child(common + ["--setup-only"], timeout=CHILD_TIMEOUT)
        executions = _executions(common, seconds, trace, spans)
        setups = [e["setup_s"] for e in executions]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_child(common + ["--setup-only"],
                                 timeout=CHILD_TIMEOUT)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [e for e in executions if not e["traced"]]
    failed = sum(1 for e in executions if not e["ok"])
    digests = sorted({e["digest"] for e in executions if "digest" in e})
    problems = [e["error"] for e in executions if "error" in e]
    if len(digests) > 1:
        problems.append(f"output_digest differs between executions: {digests}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "host": _host(), "platform": executions[0]["platform"],
              "run_s": _spread([e["wall_s"] for e in plain]),
              "setup_s": _spread(setups),
              "peak_rss_mb": _spread([e["peak_rss_mb"] for e in plain]),
              "failed_frac": failed / len(executions),
              "output_digest": digests,
              "outputs": next((e["outputs"] for e in executions if "outputs" in e), {}),
              "executions": executions}
    if trace:
        metrics, layer_problems = _per_layer(executions)
        problems += layer_problems
        units = metric_units()
        record["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        metrics = {key: record[key]["median"] for key in END_TO_END}
        units = END_TO_END
    record["problems"] = problems
    record["result"] = {
        "correct": not problems, "attempted": len(executions), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(OUT, f"result-{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record: dict) -> None:
    host, plat = record["host"], record["platform"]
    print(f"== {record['workload']}  seed {record['seed']} (held-out seed "
          f"{WORKLOADS[record['workload']].held_out_seed})  trace {record['trace']}"
          f"{'  smoke' if record['smoke'] else ''}")
    print(f"   host: {host['nproc']} cpus, {host['cpu_model']}, caches {host['caches']}")
    print(f"   python {plat['python']}, numpy {plat['numpy']}, {plat['blas']}, "
          f"OPENBLAS_NUM_THREADS={plat['openblas_num_threads']} "
          f"OMP_NUM_THREADS={plat['omp_num_threads']}")
    for key, unit in END_TO_END.items():
        stats = record[key]
        extra = "  ".join(f"{k} {v:.4g}" for k, v in stats.items()
                          if k not in ("median", "n"))
        print(f"   {key:<24} {stats['median']:.4f} {unit}  "
              f"(median of n={stats['n']}; {extra})")
    result = record["result"]
    print(f"   {'failed_frac':<24} {record['failed_frac']:g} "
          f"({result['failed']} of {result['attempted']} executions)")
    for name, (value, unit) in record["outputs"].items():
        print(f"   {name:<24} {value:.6g} {unit}")
    print(f"   {'output_digest':<24} {', '.join(record['output_digest'])}")
    if record["trace"]:
        for name, metric in result["metrics"].items():
            print(f"   {name:<44} {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    p.add_argument("--seed", type=int,
                   help="workload seed (default: each workload's default seed)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time budget of the measuring loop (at least three executions run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced-size workloads")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zklab", "__init__.py")):
        print(f"error: zklab sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            records.append(run_workload(name, seed, args.seconds, args.trace, args.smoke))
            _print_record(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
        return 0
    results = [r["result"] for r in records]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{rec['workload']}.{k}": v for rec in records
                    for k, v in rec["result"]["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
