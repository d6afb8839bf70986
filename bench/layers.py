"""Per-layer metrics from a traced run.

Times named `*_s` are seconds per workload operation (the traced operations'
total divided by their number), except `netcore.step_s.*` and
`netcore.adam_s`, which are per call. A `.p50` or `.p99` suffix is the
per-call quantile of the same span. Counts are per operation too.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import Tracer, outermost, self_times

KINDS = ("gbdt", "svm", "logreg", "knn")
METHODS = ("linear", "pchip", "barycentric")
# spans with more than 1,000 calls on some workload get per-call quantiles
QUANTILE_SPANS = {
    "netcore.step_s.gap0": "netcore.step.gap0",
    "netcore.step_s.gapN": "netcore.step.gapN",
    "netcore.adam_s": "netcore.adam",
    **{f"interp.fill_s.{m}": f"interp.fill.{m}" for m in METHODS},
    "framing.stage1_s": "framing.stage1",
    "framing.stage2_s": "framing.stage2",
    "encoding.encode_s": "encoding.encode",
}

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {}


def _add(names, unit, better):
    for name in names:
        PER_LAYER[name] = (unit, better)


_add(["netcore.step_s.gap0", "netcore.step_s.gapN", "netcore.adam_s", "netcore.forward_s",
      "netcore.weights_io_s"], "s", "lower")
_add(["netcore.steps.gap0", "netcore.steps.gapN", "netcore.adam_steps", "netcore.forward_rows"],
     "count", "lower")
_add(["netcore.apps_per_step"], "count", "lower")
_add(["netcore.rollout_useful_ratio"], "ratio", "higher")
_add(["pipeline.fit_s.stage1", "pipeline.fit_s.stage2", "pipeline.fit_self_s", "pipeline.evaluate_s",
      "pipeline.frame_cache_s", "pipeline.cv_s", "pipeline.final_s"], "s", "lower")
_add(["pipeline.fits"], "count", "lower")
_add(["transfer.extract_s", "transfer.extract_self_s", "transfer.metrics_s"], "s", "lower")
_add([f"classifiers.{what}_s.{kind}" for what in ("fit", "predict") for kind in KINDS], "s", "lower")
_add(["classifiers.fits"], "count", "lower")
_add(["stats.s", "cohort.generate_s", "cohort.write_s", "cohort.read_s"], "s", "lower")
_add(["cohort.rows_read"], "count", "higher")
_add(["cohort.rejected_rows"], "count", "lower")
_add([f"interp.fill_s.{m}" for m in METHODS], "s", "lower")
_add(["interp.series"], "count", "lower")
_add(["framing.stage1_s", "framing.stage2_s"], "s", "lower")
_add(["framing.frames"], "count", "lower")
_add(["framing.failed"], "count", "lower")
_add(["framing.certain_keep_ratio", "framing.stage2_keep_ratio"], "ratio", "higher")
_add(["encoding.encode_s"], "s", "lower")
_add(["encoding.frames_encoded"], "count", "lower")
_add(["cli.synth_s", "cli.pretrain_s", "cli.transfer_s", "cli.self_s"], "s", "lower")
_add(["run.cpu_s", "trace.wall_s"], "s", "lower")
_add(["trace.overhead_ratio"], "ratio", "lower")
_add(["trace.spans"], "count", "lower")
_add([f"{metric}.{q}" for metric in QUANTILE_SPANS for q in ("p50", "p99")], "s", "lower")


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def per_layer(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float],
              untraced_cpu: list[float]) -> dict[str, float]:
    """Every per-layer metric, from the spans and counts of the traced
    operations and the walls of the untraced ones run beside them."""
    ops = len(traced_walls)
    arrays = tracer.arrays()
    names = np.array(tracer.names or [""])[arrays["name_id"]]
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    duration = end - start
    counts = tracer.counts

    def spans(*wanted):
        return np.isin(names, wanted)

    def total(*wanted):
        return float(duration[outermost(parent, spans(*wanted))].sum()) / ops

    def per_call(name):
        calls = duration[names == name]
        return float(calls.mean()) if calls.size else 0.0

    def self_total(parents, child_prefix):
        keep = np.char.startswith(names, child_prefix)
        own = self_times(start, end, parent, keep)
        return float(own[spans(*parents)].sum()) / ops

    def count(key):
        return counts[key] / ops

    m = {
        "netcore.step_s.gap0": per_call("netcore.step.gap0"),
        "netcore.steps.gap0": count("netcore.steps.gap0"),
        "netcore.step_s.gapN": per_call("netcore.step.gapN"),
        "netcore.steps.gapN": count("netcore.steps.gapN"),
        "netcore.apps_per_step": _ratio(counts["netcore.apps.gapN"], counts["netcore.steps.gapN"]),
        "netcore.adam_s": per_call("netcore.adam"),
        "netcore.adam_steps": count("netcore.adam_steps"),
        "netcore.forward_s": total("netcore.forward"),
        "netcore.forward_rows": count("netcore.forward_rows"),
        "netcore.rollout_useful_ratio": _ratio(counts["extract.gap_sum"], counts["extract.rollout_rows"]),
        "netcore.weights_io_s": total("netcore.weights_io"),
        "pipeline.fit_s.stage1": total("pipeline.fit.stage1"),
        "pipeline.fit_s.stage2": total("pipeline.fit.stage2"),
        "pipeline.fit_self_s": self_total(["pipeline.fit.stage1", "pipeline.fit.stage2"], "netcore."),
        "pipeline.fits": count("pipeline.fits"),
        "pipeline.evaluate_s": total("pipeline.evaluate"),
        "pipeline.frame_cache_s": total("pipeline.frame_cache"),
        "pipeline.cv_s": total("pipeline.cv"),
        "pipeline.final_s": total("pipeline.final"),
        "transfer.extract_s": total("transfer.extract"),
        "transfer.extract_self_s": self_total(["transfer.extract"], "netcore."),
        "transfer.metrics_s": total("transfer.metrics"),
        "classifiers.fits": count("classifiers.fits"),
        "stats.s": total("stats"),
        "cohort.generate_s": total("cohort.generate"),
        "cohort.write_s": total("cohort.write"),
        "cohort.read_s": total("cohort.read"),
        "cohort.rows_read": count("cohort.rows_read"),
        "cohort.rejected_rows": count("cohort.rejected_rows"),
        "interp.series": count("interp.series"),
        "framing.stage1_s": total("framing.stage1"),
        "framing.stage2_s": total("framing.stage2"),
        "framing.frames": count("framing.stage1_frames") + count("framing.stage2_frames"),
        "framing.failed": count("framing.failed"),
        "framing.certain_keep_ratio": _ratio(counts["framing.certain_kept"], counts["framing.certain_built"]),
        "framing.stage2_keep_ratio": _ratio(counts["framing.stage2_frames"], counts["framing.stage2_calls"]),
        "encoding.encode_s": total("encoding.encode"),
        "encoding.frames_encoded": count("encoding.frames_encoded"),
        "cli.synth_s": total("cli.synth"),
        "cli.pretrain_s": total("cli.pretrain"),
        "cli.transfer_s": total("cli.transfer"),
        "cli.self_s": self_total(["cli.main"], "cli."),
        "run.cpu_s": statistics.median(untraced_cpu),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "trace.spans": len(names) / ops,
    }
    for kind in KINDS:
        m[f"classifiers.fit_s.{kind}"] = total(f"classifiers.fit.{kind}")
        m[f"classifiers.predict_s.{kind}"] = total(f"classifiers.predict.{kind}")
    for method in METHODS:
        m[f"interp.fill_s.{method}"] = total(f"interp.fill.{method}")
    for metric, span in QUANTILE_SPANS.items():
        calls = duration[names == span]
        for q in (50, 99):
            m[f"{metric}.p{q}"] = float(np.percentile(calls, q)) if calls.size else 0.0
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(m) ^ set(PER_LAYER))}")
    return {name: m[name] for name in PER_LAYER}
