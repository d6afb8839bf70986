"""Frozen-model transfer to the episodic cohort and the downstream study.

Each episodic record is turned into per-parameter features by rolling the
frozen forecaster forward over the record's month gap with
`netcore.rollout_forward`, the rollout that training and evaluation run:

* `out`: the forecast scalar after the full rollout, one per parameter (6);
* `emb`: the encoder's final-month latent at the last application (6 x 5 = 30);
* `raw`: the normalized input values themselves (6), the no-model baseline;
* mid-rollout forecasts at ceil(g/2) for the distribution export.

`extract_features_bulk` fills one `ProgressFeatures` table, one row per
record, and the study and the export index its arrays in place.

The record's single observed value seeds all 12 window months (constant
carry), with only the final month flagged as really observed; the rollout
supplies all temporal structure.

The study protocol: per repetition seed, negatives are downsampled to the
positive count, the balanced set splits 80:20 stratified by label, all four
classifier families train per representation, and metrics average over five
repetitions. Inter-classifier agreement is summarized by mean pairwise
Cohen's kappa, and representations are compared metric-by-metric with
pooled t-tests over the per-repetition values. The models are fingerprinted
before and after; any drift is an error.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import netcore as nc
from .artifacts import write_csv
from .classifiers import ClassifierKind, train_classifier
from .cohort import PARAMETER_ORDER, EpisodicRecord, LabParameter
from .encoding import FRAME_WIDTH, denormalize, encode_frame
from .errors import ConfigError, EvaluationError, IntegrityError, TrainingError
from .seeding import derive_seed, rng_from
from .stats import t_test

logger = logging.getLogger(__name__)

MAX_REPETITIONS = 1_000  # fixed, so that a config cannot ask for an unbounded study
REPRESENTATIONS = ("raw", "emb", "out")
METRIC_NAMES = ("auroc", "accuracy", "sensitivity", "specificity", "precision", "f1")


@dataclass
class ProgressFeatures:
    """The transfer features of n records, one row per record."""

    patient_ids: list[str]
    labels: np.ndarray    # (n,) int
    raw: np.ndarray       # (n, 6) normalized input values
    emb: np.ndarray       # (n, 30) final latents, parameter-major
    out: np.ndarray       # (n, 6) full-rollout forecasts (normalized)
    out_half: np.ndarray  # (n, 6) forecasts at ceil(g/2) applications

    def __len__(self) -> int:
        return len(self.patient_ids)


def seed_frame(record: EpisodicRecord, parameter: LabParameter) -> np.ndarray:
    """Constant-carry seed window: the observed value fills all 12 months,
    only the last month is flagged as really observed."""
    flags = [0.0] * (FRAME_WIDTH - 1) + [1.0]
    values = [record.values[parameter]] * FRAME_WIDTH
    return encode_frame(record.patient_id, parameter, record.age, record.gender, values, flags)


def _check_models(models: dict[LabParameter, nc.GlpModel]) -> None:
    missing = [p.value for p in PARAMETER_ORDER if p not in models]
    if missing:
        raise IntegrityError(f"missing models for: {','.join(missing)}")
    for parameter, model in models.items():
        if model.parameter is not parameter:
            raise IntegrityError(
                f"model trained for {model.parameter.value} supplied under {parameter.value}"
            )


def extract_features_bulk(
    models: dict[LabParameter, nc.GlpModel], records: list[EpisodicRecord]
) -> ProgressFeatures:
    """Transfer features of the records; the models are never mutated.

    Per parameter, one `netcore.rollout_forward` call rolls each record
    forward to its own gap (a record leaves the batch once its g-th
    application has run) and keeps only each record's latents of its own
    ceil(g/2)-th and g-th applications, so memory is O(records)."""
    _check_models(models)
    n = len(records)
    gaps = np.array([max(r.gap_months, 1) for r in records])
    half_apps = np.maximum(1, -(-gaps // 2))
    raw = np.empty((n, len(PARAMETER_ORDER)))
    emb = np.empty((n, len(PARAMETER_ORDER), nc.HIDDEN))
    out = np.empty((n, len(PARAMETER_ORDER)))
    half = np.empty((n, len(PARAMETER_ORDER)))
    for i, parameter in enumerate(PARAMETER_ORDER):
        model = models[parameter]
        x0 = np.stack([seed_frame(record, parameter) for record in records])
        raw[:, i] = x0[:, 0, 4]
        out[:, i], (half_latent, emb[:, i]), _, _ = nc.rollout_forward(
            model, x0, int(gaps.max()), at=(half_apps, gaps))
        half[:, i], _ = nc.regressor_forward(model.regressor, half_latent)
    return ProgressFeatures([r.patient_id for r in records],
                            np.array([r.label for r in records], dtype=int),
                            raw, emb.reshape(n, -1), out, half)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsRow:
    auroc: float | None
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float


def auroc(labels, scores) -> float:
    """Rank-statistic AUROC; ties count half."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUROC undefined: one class missing")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]  # average rank, 1-based
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(labels, predictions, scores) -> MetricsRow:
    """Confusion-matrix metrics plus rank AUROC; AUROC is None when the labels
    are one-class (the others are still returned)."""
    labels = np.asarray(labels, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if labels.size == 0 or labels.shape != predictions.shape:
        raise EvaluationError("labels and predictions must align and be non-empty")
    tp = int(np.sum((labels == 1) & (predictions == 1)))
    tn = int(np.sum((labels == 0) & (predictions == 0)))
    fp = int(np.sum((labels == 0) & (predictions == 1)))
    fn = int(np.sum((labels == 1) & (predictions == 0)))
    accuracy = (tp + tn) / labels.size
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = (
        2.0 * precision * sensitivity / (precision + sensitivity)
        if precision + sensitivity
        else 0.0
    )
    try:
        area = auroc(labels, scores)
    except EvaluationError:
        area = None
    return MetricsRow(area, accuracy, sensitivity, specificity, precision, f1)


def cohens_kappa(labels_a, labels_b) -> float:
    a = np.asarray(labels_a, dtype=int)
    b = np.asarray(labels_b, dtype=int)
    if a.shape != b.shape or a.size < 2:
        raise EvaluationError("kappa needs two aligned label vectors of size >= 2")
    p_o = float(np.mean(a == b))
    p_a = a.mean()
    p_b = b.mean()
    p_e = p_a * p_b + (1 - p_a) * (1 - p_b)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise EvaluationError("kappa undefined: chance agreement is 1 with disagreements")
    return (p_o - p_e) / (1.0 - p_e)


def mean_pairwise_kappa(predictions: dict[str, np.ndarray]) -> float:
    names = sorted(predictions)
    if len(names) < 2:
        raise EvaluationError("need at least two classifiers for pairwise agreement")
    kappas = []
    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            kappas.append(cohens_kappa(predictions[name_a], predictions[name_b]))
    return float(np.mean(kappas))


# ---------------------------------------------------------------------------
# study


@dataclass
class DownstreamReport:
    seed: int
    repetitions: int
    split_ratio: float
    n_records: int
    n_balanced: int
    per_classifier: dict[str, dict[str, MetricsRow]] = field(default_factory=dict)
    averaged: dict[str, MetricsRow] = field(default_factory=dict)
    kappa: dict[str, float] = field(default_factory=dict)
    significance: list[dict] = field(default_factory=list)
    model_checksums: dict[str, int] = field(default_factory=dict)


def _stratified_split(labels: np.ndarray, ratio: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sorted int (train, test) indices, `ratio` of each class (rounded) to
    train. Raises ConfigError when the ratio leaves a class without training
    or test rows."""
    train_idx, test_idx = [], []
    for value in (0, 1):
        indices = np.flatnonzero(labels == value)
        order = rng.permutation(len(indices))
        n_train = int(round(ratio * len(indices)))
        if not 0 < n_train < len(indices):
            raise ConfigError(
                f"transfer.split_ratio {ratio} leaves class {value} ({len(indices)} rows) "
                "without training or test rows")
        train_idx.extend(indices[order[:n_train]])
        test_idx.extend(indices[order[n_train:]])
    return np.array(sorted(train_idx), dtype=int), np.array(sorted(test_idx), dtype=int)


def run_downstream_study(
    models: dict[LabParameter, nc.GlpModel],
    records: list[EpisodicRecord],
    seed: int,
    repetitions: int = 5,
    split_ratio: float = 0.8,
) -> tuple[DownstreamReport, ProgressFeatures]:
    """The full classification comparison across raw / emb / out features.

    Raises ConfigError when `repetitions` is outside 1..MAX_REPETITIONS, or
    when `split_ratio` leaves a class of the balanced set without training or
    test rows."""
    if not 1 <= repetitions <= MAX_REPETITIONS:
        raise ConfigError(f"transfer.repetitions must be >= 1 and <= {MAX_REPETITIONS}")
    checksums_before = {p.value: nc.model_checksum(models[p]) for p in PARAMETER_ORDER}
    features = extract_features_bulk(models, records)

    metric_samples: dict[tuple[str, str, str], list[float]] = {}
    kappa_samples: dict[str, list[float]] = {rep: [] for rep in REPRESENTATIONS}
    rep_means: dict[tuple[str, str], list[float]] = {}

    n_balanced = 0
    for repetition in range(repetitions):
        rep_seed = derive_seed(seed, "repetition", repetition)
        keep = _balanced_indices(features.labels, rep_seed)
        n_balanced = len(keep)
        labels = features.labels[keep]
        train_idx, test_idx = _stratified_split(labels, split_ratio, rng_from(rep_seed, "split"))
        for rep in REPRESENTATIONS:
            matrix = getattr(features, rep)[keep]
            predictions = {}
            per_classifier_metrics = {}
            for kind in ClassifierKind:
                model = train_classifier(kind, matrix[train_idx], labels[train_idx])
                predicted, scores = model.predict(matrix[test_idx])
                row = classification_metrics(labels[test_idx], predicted, scores)
                predictions[kind.value] = predicted
                per_classifier_metrics[kind.value] = row
                for metric in METRIC_NAMES:
                    metric_samples.setdefault((rep, kind.value, metric), []).append(
                        getattr(row, metric)
                    )
            kappa_samples[rep].append(mean_pairwise_kappa(predictions))
            for metric in METRIC_NAMES:
                rep_means.setdefault((rep, metric), []).append(
                    float(np.mean([getattr(row, metric) for row in per_classifier_metrics.values()]))
                )

    report = DownstreamReport(
        seed=seed, repetitions=repetitions, split_ratio=split_ratio,
        n_records=len(records), n_balanced=n_balanced,
    )
    for rep in REPRESENTATIONS:
        report.per_classifier[rep] = {}
        for kind in ClassifierKind:
            report.per_classifier[rep][kind.value] = MetricsRow(
                *[float(np.mean(metric_samples[(rep, kind.value, m)])) for m in METRIC_NAMES]
            )
        rows = report.per_classifier[rep].values()
        report.averaged[rep] = MetricsRow(
            *[float(np.mean([getattr(r, m) for r in rows])) for m in METRIC_NAMES]
        )
        report.kappa[rep] = float(np.mean(kappa_samples[rep]))

    pairs = [("raw", "emb"), ("raw", "out"), ("emb", "out")]
    for rep_a, rep_b in pairs:
        for metric in METRIC_NAMES:
            result = t_test(rep_means[(rep_a, metric)], rep_means[(rep_b, metric)])
            report.significance.append(
                {"metric": metric, "a": rep_a, "b": rep_b,
                 "t": result.t, "df": result.df, "p": result.p, "variant": "pooled"}
            )

    checksums_after = {p.value: nc.model_checksum(models[p]) for p in PARAMETER_ORDER}
    if checksums_before != checksums_after:
        raise IntegrityError("frozen models changed during the downstream study")
    report.model_checksums = checksums_after
    return report, features


def _balanced_indices(labels: np.ndarray, seed: int) -> np.ndarray:
    """Indices of every positive and an equal number of negatives sampled
    without replacement, in ascending order."""
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels == 0)
    if len(negatives) < len(positives):
        raise TrainingError("cannot downsample: fewer negatives than positives")
    rng = rng_from(seed, "downsample")
    chosen = rng.choice(len(negatives), size=len(positives), replace=False)
    return np.sort(np.concatenate([positives, negatives[chosen]]))


# ---------------------------------------------------------------------------
# exports


def report_to_dict(report: DownstreamReport) -> dict:
    data = asdict(report)
    data["mean_pairwise_kappa"] = data.pop("kappa")
    return data


def write_downstream_table_csv(report: DownstreamReport, path) -> None:
    """Representation x classifier metric table with averaged rows."""
    rows = []
    for rep in REPRESENTATIONS:
        for kind, row in report.per_classifier[rep].items():
            rows.append([rep, kind] + [repr(getattr(row, m)) for m in METRIC_NAMES] + [""])
        averaged = report.averaged[rep]
        rows.append([rep, "avg"] + [repr(getattr(averaged, m)) for m in METRIC_NAMES]
                    + [repr(report.kappa[rep])])
    write_csv(path, ["representation", "classifier", *METRIC_NAMES, "mean_pairwise_kappa"], rows)


def write_distribution_csv(features: ProgressFeatures, path) -> None:
    """Per record and parameter: the raw value and the denormalized forecasts
    at half and full rollout."""
    stages = (("raw", features.raw), ("half", features.out_half), ("full", features.out))
    write_csv(path, ["patient_id", "parameter", "stage", "value", "label"], (
        [patient_id, parameter.value, stage, repr(denormalize(values[j, i])), label]
        for j, (patient_id, label) in enumerate(zip(features.patient_ids, features.labels.tolist()))
        for i, parameter in enumerate(PARAMETER_ORDER)
        for stage, values in stages
    ))
