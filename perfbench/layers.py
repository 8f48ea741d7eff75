"""Per-layer metrics of one traced execution, computed from its spans.

A layer is a zklab module (plus ``fft`` for numpy.fft as zklab calls it).
For a span name ``X``: ``X.calls`` counts its spans, ``X.total_s`` sums the
durations of the outermost ones, and ``X.self_s`` sums duration minus the
time of direct child spans.  Nothing in the program waits on a queue, so no
wait time is reported; failures are counted end to end.

Self times include work that runs in closures, which cannot be wrapped from
outside: ``dynamics.step_etdrk4.self_s`` holds ``_advance.nonlin`` (the
dealiased square; its FFTs are still counted under ``fft``),
``imethod.increment_identity_check.self_s`` holds the factored Lambda3/Lambda4
evaluators, and ``probes.trilinear_form_probe.self_s`` holds its per-step
``record``.
"""

from __future__ import annotations

from tracer import WRITERS

# -- span analysis -------------------------------------------------------------

def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total_s (outermost spans of that name), self_s, size."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "size": 0})
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_time[i]
        row["size"] += size
        if not _inside(spans, parent, lambda other: other == name):
            row["total_s"] += duration
    return table


def _inside(spans, parent: int, match) -> bool:
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def layer_total(spans: list[list], prefixes: tuple) -> float:
    """Time in spans named with one of ``prefixes``, outermost ones only."""
    def match(name):
        return name.startswith(prefixes)

    return sum(end - start for name, start, end, parent, _ in spans
               if match(name) and not _inside(spans, parent, match))


def count_inside(spans: list[list], prefix: str, ancestor: str) -> int:
    """Spans named with ``prefix`` that run inside a span named ``ancestor``."""
    return sum(1 for name, _, _, parent, _ in spans
               if name.startswith(prefix)
               and _inside(spans, parent, lambda other: other == ancestor))


def top_level_time(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


# -- metrics --------------------------------------------------------------------

# Each entry is <span name>.<calls|total_s|self_s>.
SPAN_METRICS = (
    "forms.omega.calls", "forms.omega.self_s",
    "forms.nonlinear_derivative.calls", "forms.nonlinear_derivative.self_s",
    "spectral.dealias_mask.calls", "spectral.dealias_mask.self_s",
    "spectral.Field.physical.calls", "spectral.Field.physical.self_s",
    "dynamics.step_etdrk4.calls", "dynamics.step_etdrk4.total_s",
    "dynamics.step_etdrk4.self_s",
    "dynamics.max_dispersion.calls", "dynamics.max_dispersion.total_s",
    "dynamics.etdrk4_tableau.calls", "dynamics.etdrk4_tableau.total_s",
    "dynamics.evolve.total_s", "dynamics.evolve.self_s",
    "reporting.DiagnosticsRecorder.calls", "reporting.DiagnosticsRecorder.total_s",
    "imethod.energy.calls", "imethod.energy.total_s", "imethod.mass.total_s",
    "imethod.increment_identity_check.total_s",
    "imethod.increment_identity_check.self_s",
    "norms.pvariation_norm.calls", "norms.pvariation_norm.total_s",
    "norms.twisted_variation.total_s", "norms.twisted_variation.self_s",
    "norms.y_half_proxy.total_s", "norms.mixed_lebesgue_norm.total_s",
    "norms.besov_norm_2_1.total_s",
    "trajectory.SpaceTimeField.values.calls",
    "trajectory.SpaceTimeField.values.total_s",
    "littlewood_paley.LPProjector.calls", "littlewood_paley.LPProjector.total_s",
    "probes.strichartz_probe.total_s", "probes.l4_probe.total_s",
    "probes.gh_bilinear_probe.total_s", "probes.gh_bilinear_probe.self_s",
    "probes.trilinear_form_probe.total_s", "probes.trilinear_form_probe.self_s",
    "picard.picard_iterate.total_s", "picard.picard_iterate.self_s",
    "quadrature.cumulative_integral.total_s",
    "cli.main.total_s", "cli.main.self_s",
)

# name -> unit
UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
DERIVED = {
    "fft.calls": "count",
    "fft.points": "count",
    "fft.self_s": "s",
    "fft.calls_per_step": "1/step",
    "dynamics.step_etdrk4.fft_calls_per_step": "1/step",
    "dynamics.step_etdrk4.omega_calls_per_step": "1/step",
    "reporting.write.total_s": "s",
    "reporting.bytes_written": "B",
    "ic.total_s": "s",
    "trace.unattributed_frac": "1",
    "trace.overhead_frac": "1",
}

# Metrics that must repeat exactly between executions of one seed.
EXACT = tuple(m for m in list(SPAN_METRICS) + list(DERIVED)
              if m.endswith((".calls", "points", "per_step")))


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    out = {m: UNITS[m.rpartition(".")[2]] for m in SPAN_METRICS}
    out.update(DERIVED)
    return out


def per_layer(spans: list[list], wall_s: float) -> dict:
    """Every per-layer metric except trace.overhead_frac, which needs an
    untraced execution to compare with."""
    table = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}
    out = {}
    for metric in SPAN_METRICS:
        span, _, stat = metric.rpartition(".")
        out[metric] = table.get(span, empty)[stat]
    ffts = [row for name, row in table.items() if name.startswith("fft.")]
    steps = out["dynamics.step_etdrk4.calls"]

    def per_step(count):
        return count / steps if steps else 0.0

    out["fft.calls"] = sum(row["calls"] for row in ffts)
    out["fft.points"] = sum(row["size"] for row in ffts)
    out["fft.self_s"] = sum(row["self_s"] for row in ffts)
    out["fft.calls_per_step"] = per_step(out["fft.calls"])
    out["dynamics.step_etdrk4.fft_calls_per_step"] = per_step(
        count_inside(spans, "fft.", "dynamics.step_etdrk4"))
    out["dynamics.step_etdrk4.omega_calls_per_step"] = per_step(
        count_inside(spans, "forms.omega", "dynamics.step_etdrk4"))
    out["reporting.write.total_s"] = layer_total(spans, WRITERS)
    out["reporting.bytes_written"] = sum(table.get(w, empty)["size"] for w in WRITERS)
    out["ic.total_s"] = layer_total(spans, ("ic.",))
    out["trace.unattributed_frac"] = 1.0 - top_level_time(spans) / wall_s
    return out
