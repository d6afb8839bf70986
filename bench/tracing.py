"""In-memory span tracing around calls into glp's public functions.

The tracer records one span per wrapped call (name, start, end, parent span,
run id) and named counts at the same boundaries. Spans live in compact
arrays until the run ends; nothing is written while work is being timed.

`instrument` replaces public functions at the import site each caller uses
(for example `glp.pipeline.build_stage1_frames`, the name pipeline looks up
at call time) and restores the originals afterwards. No file under `src/`
changes: the wrappers live only in this benchmark.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self.training_depth = 0  # > 0 while a training step is open

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent, counted=None) -> np.ndarray:
    """Each span's duration minus the part of its interval that its direct
    children cover. `counted` masks which children count (default: all).

    Children are clipped to their parent and overlapping children are
    merged, so the result never double-subtracts."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=int)
    own = end - start
    mask = parent >= 0
    if counted is not None:
        mask &= np.asarray(counted, dtype=bool)
    children = np.flatnonzero(mask)
    children = children[np.lexsort((start[children], parent[children]))]
    current, covered_to = -1, -np.inf
    for child in children:
        p = parent[child]
        if p != current:
            current, covered_to = p, start[p]
        lo = max(start[child], covered_to)
        hi = min(end[child], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to = hi
    return own


def outermost(parent, member) -> np.ndarray:
    """Mask of member spans with no member ancestor, so nested calls inside
    one group (e.g. `auroc` inside `classification_metrics`) count once."""
    parent = np.asarray(parent, dtype=int)
    member = np.asarray(member, dtype=bool)
    index = np.flatnonzero(member)
    ancestor = parent[index]
    nested = np.zeros(index.size, dtype=bool)
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        nested[live] |= member[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
    result = np.zeros(member.size, dtype=bool)
    result[index[~nested]] = True
    return result


# ---------------------------------------------------------------------------
# wrapping


def _wrap(tracer: Tracer, fn, name, count=None, training=False):
    """A stand-in for `fn` that records a span named `name` (or `name(*args)`,
    which may return None to skip recording) and, on success, the counts
    `count(result, *args)` returns."""

    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        if label is None:
            return fn(*args, **kwargs)
        index = tracer.open(label)
        if training:
            tracer.training_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            if training:
                tracer.training_depth -= 1
            tracer.close(index)
        if count is not None:
            tracer.counts.update(count(result, *args, **kwargs))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _sites(tracer: Tracer):
    """(module, attribute, span name, counts, opens a training step) for
    every call site the per-layer metrics need."""

    def outside_training(label):
        return lambda *a, **k: None if tracer.training_depth else label

    def step_name(model, x0, targets, gap, **_):
        return "netcore.step.gap0" if gap == 0 else "netcore.step.gapN"

    def step_count(_, model, x0, targets, gap, **__):
        key = "gap0" if gap == 0 else "gapN"
        return {f"netcore.steps.{key}": 1, f"netcore.apps.{key}": max(int(gap), 1)}

    def forward_rows(_, params, x, *a, **k):
        return {"netcore.forward_rows": int(x.shape[0])}

    def interp_name(series, method):
        return f"interp.fill.{method.value}"

    def stage1_count(frames, *a, **k):
        return {"framing.stage1_frames": len(frames)}

    def stage2_count(frame, *a, **k):
        return {"framing.stage2_calls": 1, "framing.stage2_frames": int(frame is not None)}

    def assemble_count(result, cache, patients, certain):
        built = sum(len(cache[p.patient_id][0]) for p in patients)
        return {"framing.certain_built": built, "framing.certain_kept": len(result[0])}

    def extract_count(_, models, records):
        gaps = np.array([max(r.gap_months, 1) for r in records])
        return {"extract.gap_sum": int(gaps.sum()), "extract.rollout_rows": int(gaps.size * gaps.max())}

    def pretext_rows(result, *a, **k):
        accepted = sum(len(s.observations) for p in result.patients for s in p.series.values())
        rejected = len(result.rejected_rows)
        return {"cohort.rows_read": accepted + rejected, "cohort.rejected_rows": rejected}

    def episodic_rows(result, *a, **k):
        rejected = len(result.rejected_rows)
        return {"cohort.rows_read": len(result.records) + rejected, "cohort.rejected_rows": rejected}

    def fit_name(kind, *a, **k):
        return f"classifiers.fit.{kind.value}"

    def predict_name(classifier, *a, **k):
        return f"classifiers.predict.{classifier.kind.value}"

    def one(key):
        return lambda *a, **k: {key: 1}

    cohort_sites = [
        ("generate_pretext_cohort", "cohort.generate", None),
        ("generate_downstream_cohort", "cohort.generate", None),
        ("write_cohort_csv", "cohort.write", None),
        ("write_episodic_csv", "cohort.write", None),
        ("read_cohort_csv", "cohort.read", pretext_rows),
        ("read_episodic_csv", "cohort.read", episodic_rows),
    ]
    framing_sites = [
        ("interpolate_series", interp_name, one("interp.series")),
        ("build_stage1_frames", "framing.stage1", stage1_count),
        ("build_stage2_frame", "framing.stage2", stage2_count),
    ]
    sites = [
        ("glp.cli", "cmd_synth", "cli.synth", None),
        ("glp.cli", "cmd_pretrain", "cli.pretrain", None),
        ("glp.cli", "cmd_transfer", "cli.transfer", None),
        ("glp.cli", "cross_validate", "pipeline.cv", None),
        ("glp.cli", "sweep_certain", "pipeline.cv", None),
        ("glp.cli", "train_final_models", "pipeline.final", None),
        ("glp.cli", "save_weights", "netcore.weights_io", None),
        ("glp.cli", "load_weights", "netcore.weights_io", None),
        ("glp.pipeline", "build_frame_cache", "pipeline.frame_cache", None),
        ("glp.pipeline", "assemble_frames", "pipeline.assemble", assemble_count),
        ("glp.pipeline", "train_stage1", "pipeline.fit.stage1", one("pipeline.fits")),
        ("glp.pipeline", "train_stage2", "pipeline.fit.stage2", one("pipeline.fits")),
        ("glp.pipeline", "evaluate_r2", "pipeline.evaluate", None),
        ("glp.pipeline", "r_squared", "stats", None),
        ("glp.transfer", "extract_features_bulk", "transfer.extract", extract_count),
        ("glp.transfer", "encode_frame", "encoding.encode", one("encoding.frames_encoded")),
        ("glp.transfer", "classification_metrics", "transfer.metrics", None),
        ("glp.transfer", "auroc", "transfer.metrics", None),
        ("glp.transfer", "mean_pairwise_kappa", "transfer.metrics", None),
        ("glp.transfer", "train_classifier", fit_name, one("classifiers.fits")),
        ("glp.transfer", "t_test", "stats", None),
        ("glp.classifiers", "Classifier.predict", predict_name, None),
        ("glp.framing", "encode_frame", "encoding.encode", one("encoding.frames_encoded")),
        ("glp.netcore", "rollout_loss_and_grads", step_name, step_count),
        ("glp.netcore", "adam_step", "netcore.adam", one("netcore.adam_steps")),
        ("glp.netcore", "libc_forward", outside_training("netcore.forward"), forward_rows),
        ("glp.netcore", "regressor_forward", outside_training("netcore.forward"), None),
        ("glp.netcore", "next_input", outside_training("netcore.forward"), None),
    ]
    sites += [("glp.cli", attr, label, count) for attr, label, count in cohort_sites]
    sites += [("glp.cohort", attr, label, count) for attr, label, count in cohort_sites]
    sites += [("glp.pipeline", attr, label, count) for attr, label, count in framing_sites]
    sites += [("glp.interp", *framing_sites[0])]
    sites += [("glp.framing", *site) for site in framing_sites[1:]]
    training = {("glp.netcore", "rollout_loss_and_grads")}
    return [(m, a, label, count, (m, a) in training) for m, a, label, count in sites]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced call site for the duration of the block."""
    originals = []
    try:
        for module_name, attr, label, count, training in _sites(tracer):
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, _wrap(tracer, original, label, count, training))
            originals.append((owner, leaf, original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)
