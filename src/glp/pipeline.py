"""Training methods, rollout inference, and the validation harness.

Four training methods, dispatched by `train_by_method`, share one
deterministic fitting loop:

* supervised-only: sliding interpolated frames, single encoder pass per batch
  (`train_stage1`);
* ssl-only: the rollout frames alone, trained from random initialization
  (`train_stage2` from a scaled init);
* two-stage: supervised first, then rollout training continues from those
  parameters with a fresh optimizer (`train_stage1`, then `train_stage2`);
* hybrid: supervised and rollout batches interleaved within each epoch under
  a single optimizer state (`train_hybrid`).

Batches are bucketed by gap so every sample in a batch unrolls the same
number of encoder applications; with all gaps zero the loop is exactly the
supervised procedure, which makes the ssl path with g = 0 reproduce
supervised training batch for batch.

Validation holds out a patient-level test split once per seed, rotates folds
inside the training split for repetition, and scores rollout forecasts of
each held-out patient's final observation with R-squared on normalized
targets. `sweep_certain` grid-searches the certainty threshold 0..5 per lab
parameter and picks the argmax mean R-squared (ties toward the smaller
threshold).
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import netcore as nc
from .cohort import PARAMETER_ORDER, LabParameter, Patient
from .errors import ConfigError, EvaluationError, TrainingError
from .framing import Frame, build_stage1_frames, build_stage2_frame
from .interp import InterpMethod, interpolate_series
from .seeding import derive_seed, rng_from
from .stats import r_squared, t_ppf975

logger = logging.getLogger(__name__)


class TrainMethod(Enum):
    SSL_ONLY = "ssl"
    SUPERVISED_ONLY = "supervised"
    HYBRID = "hybrid"
    TWO_STAGE = "two-stage"


@dataclass(frozen=True)
class TrainConfig:
    method: TrainMethod = TrainMethod.TWO_STAGE
    interp: InterpMethod = InterpMethod.LINEAR
    certain: int = 0
    epochs: int = 50
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    folds: int = 5
    split_ratio: float = 0.8
    parameters: tuple[LabParameter, ...] = PARAMETER_ORDER

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        if not 0 <= self.certain <= 5:
            raise ConfigError("certain must be in [0, 5]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# frame assembly


@dataclass
class FrameSet:
    x: np.ndarray        # (N, 12, 5)
    targets: np.ndarray  # (N,)
    gaps: np.ndarray     # (N,)

    def __len__(self) -> int:
        return self.x.shape[0]


def frame_set(frames: list[Frame]) -> FrameSet:
    if not frames:
        return FrameSet(np.empty((0, 12, 5)), np.empty(0), np.empty(0, dtype=int))
    return FrameSet(
        np.stack([f.input for f in frames]),
        np.array([f.target for f in frames]),
        np.array([f.gap for f in frames], dtype=int),
    )


def build_frame_cache(
    patients: list[Patient], parameter: LabParameter, interp: InterpMethod
) -> dict[str, tuple[list[Frame], Frame | None]]:
    """Per-patient unfiltered first-stage frames and the rollout frame."""
    cache = {}
    for patient in patients:
        series = interpolate_series(patient.series[parameter], interp)
        stage1 = build_stage1_frames(series, patient.age_at_start, patient.gender, certain=0)
        stage2 = build_stage2_frame(series, patient.age_at_start, patient.gender)
        cache[patient.patient_id] = (stage1, stage2)
    return cache


def assemble_frames(
    cache: dict[str, tuple[list[Frame], Frame | None]],
    patients: list[Patient],
    certain: int,
) -> tuple[list[Frame], list[Frame]]:
    stage1, stage2 = [], []
    for patient in patients:
        s1, s2 = cache[patient.patient_id]
        stage1.extend(f for f in s1 if f.real_count >= certain)
        if s2 is not None:
            stage2.append(s2)
    return stage1, stage2


# ---------------------------------------------------------------------------
# fitting loop


def _bucket_batches(data: FrameSet, perm: np.ndarray, batch_size: int):
    """Split a shuffled index order into same-gap batches (ascending gap,
    order within a bucket preserved)."""
    buckets: dict[int, list[int]] = {}
    for index in perm:
        buckets.setdefault(int(data.gaps[index]), []).append(int(index))
    batches = []
    for gap in sorted(buckets):
        indices = buckets[gap]
        for start in range(0, len(indices), batch_size):
            batches.append((np.array(indices[start : start + batch_size]), gap))
    return batches


def _fit(
    model: nc.GlpModel,
    sources: list[FrameSet],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[nc.GlpModel, list[float]]:
    """Adam over every non-empty source's batches, one permutation per source
    and epoch drawn in source order, the sources' batches taken round robin."""
    model = nc.vector_to_model(model.vector, model.parameter, model.certain)  # private working copy
    adam = nc.AdamState.create(model.vector.size, config.learning_rate)
    history = []
    for _ in range(config.epochs):
        schedules = [
            [(data, *batch) for batch in
             _bucket_batches(data, rng.permutation(len(data)), config.batch_size)]
            for data in sources if len(data)
        ]
        for batches in itertools.zip_longest(*schedules):
            for data, indices, gap in filter(None, batches):
                loss, grads = nc.rollout_loss_and_grads(
                    model, data.x[indices], data.targets[indices], gap)
                updated, adam = nc.adam_step(model.vector, grads, adam)
                model.vector[...] = updated
                history.append(loss)
    return model, history


def _require(frames: list[Frame], what: str) -> None:
    if not frames:
        raise TrainingError(f"no frames after certainty filter ({what})")


def _scaled_init(parameter: LabParameter, config: TrainConfig, frames: list[Frame]) -> nc.GlpModel:
    """Random init calibrated to the training data's scale.

    The raw log1p channels carry a large constant offset that saturates the
    recurrent gates under plain uniform init, and the 50-epoch budget is far
    too short to crawl out of the resulting mean-predictor basin. Four
    adjustments keep the net trainable at desk scale, all trainable
    afterwards: gate pre-activations are centered against the mean input row,
    the condensing bias starts on the input manifold (so iterated
    applications stay on the data scale), and the regressor starts as an
    identity read of the value channel offset to the mean target. The age and
    gender input couplings start at zero: both channels are constant within
    every frame and uninformative for the forecast, and random couplings to
    their large offsets otherwise drown the transferred representations in
    demographic noise that this training budget cannot unlearn.
    """
    model = nc.init_model(parameter, config.certain, derive_seed(config.seed, "init"))
    x_bar = np.mean([f.input for f in frames], axis=(0, 1))
    t_bar = float(np.mean([f.target for f in frames]))
    model.libc.w_x[:, :, 0] = 0.0
    model.libc.w_x[:, :, 1] = 0.0
    for d in range(2):
        model.libc.b[d] -= model.libc.w_x[d] @ x_bar
    model.libc.b_c[:] = x_bar
    reg = model.regressor
    reg.w1[:] = [[0.0, 0.0, 0.0, 0.0, 1.0], [0.1, 0.1, 0.1, 0.1, 0.1]]
    reg.b1[:] = [0.0, 0.1]
    reg.w2[:] = [[1.0, 0.0], [0.0, 1.0]]
    reg.b2[:] = [0.0, 0.1]
    reg.w3[:] = [[1.0, 0.0]]
    reg.b3[:] = t_bar - x_bar[4]
    return model


def _parameter_of(frames: list[Frame]) -> LabParameter:
    parameters = {f.parameter for f in frames}
    if len(parameters) != 1:
        raise TrainingError(f"frames span parameters {sorted(p.value for p in parameters)}")
    return next(iter(parameters))


def train_stage1(frames: list[Frame], config: TrainConfig) -> nc.GlpModel:
    """Supervised training on sliding interpolated frames (all gaps 0)."""
    _require(frames, "stage 1")
    parameter = _parameter_of(frames)
    model = _scaled_init(parameter, config, frames)
    model, history = _fit(model, [frame_set(frames)], config, rng_from(config.seed, "fit"))
    logger.debug("stage1 %s: loss %.5f -> %.5f", parameter.value, history[0], history[-1])
    return model


def train_stage2(model: nc.GlpModel, frames: list[Frame], config: TrainConfig,
                 rng_label: str = "fit") -> nc.GlpModel:
    """Rollout training continuing from an existing model's parameters."""
    _require(frames, "stage 2")
    if _parameter_of(frames) is not model.parameter:
        raise TrainingError("frame parameter does not match the model")
    model, history = _fit(model, [frame_set(frames)], config, rng_from(config.seed, rng_label))
    logger.debug("stage2 %s: loss %.5f -> %.5f", model.parameter.value, history[0], history[-1])
    return model


def train_hybrid(
    stage1_frames: list[Frame], stage2_frames: list[Frame], config: TrainConfig
) -> nc.GlpModel:
    """Interleaved supervised and rollout batches, one optimizer state."""
    _require(stage1_frames, "stage 1")
    parameter = _parameter_of(stage1_frames)
    model = _scaled_init(parameter, config, stage1_frames + list(stage2_frames))
    sources = [frame_set(stage1_frames), frame_set(stage2_frames)]
    model, _ = _fit(model, sources, config, rng_from(config.seed, "fit"))
    return model


def train_by_method(stage1_frames, stage2_frames, config: TrainConfig):
    """Dispatch on config.method; returns (stage1_model_or_None, final_model)."""
    if config.method is TrainMethod.SUPERVISED_ONLY:
        model = train_stage1(stage1_frames, config)
        return model, model
    if config.method is TrainMethod.HYBRID:
        return None, train_hybrid(stage1_frames, stage2_frames, config)
    if config.method is TrainMethod.SSL_ONLY:
        _require(stage2_frames, "stage 2")
        init = _scaled_init(_parameter_of(stage2_frames), config, stage2_frames)
        return None, train_stage2(init, stage2_frames, config)
    intermediate = train_stage1(stage1_frames, config)
    return intermediate, train_stage2(intermediate, stage2_frames, config, "fit-stage2")


# ---------------------------------------------------------------------------
# inference and scoring


def evaluate_r2(model: nc.GlpModel, frames: list[Frame]) -> float:
    """Rollout forecasts of held-out frames scored against normalized targets."""
    if len(frames) < 2:
        raise EvaluationError("evaluate_r2 needs >= 2 held-out frames")
    data = frame_set(frames)
    predictions = np.empty(len(frames))
    for gap in np.unique(data.gaps):
        mask = data.gaps == gap
        preds, _, _, _ = nc.rollout_forward(model, data.x[mask], int(gap))
        predictions[mask] = preds
    return r_squared(predictions, data.targets)


# ---------------------------------------------------------------------------
# splits and cross-validation


def split_cohort(patients: list[Patient], ratio: float, seed: int):
    """Patient-level shuffle into (train, test); test gets the 1-ratio share."""
    order = rng_from(seed, "split").permutation(len(patients))
    n_train = int(round(ratio * len(patients)))
    train = [patients[i] for i in order[:n_train]]
    test = [patients[i] for i in order[n_train:]]
    return train, test


def make_folds(patients: list[Patient], folds: int, seed: int) -> list[list[Patient]]:
    """Disjoint covering folds with sizes differing by at most one."""
    order = rng_from(seed, "folds").permutation(len(patients))
    out = [[] for _ in range(folds)]
    for position, index in enumerate(order):
        out[position % folds].append(patients[index])
    return out


@dataclass
class GridRow:
    certain: int
    mean_r2: float
    ci95_half_width: float
    stage2_delta: float | None


@dataclass
class ParameterResult:
    parameter: str
    chosen_certain: int
    per_fold_r2: list[float]
    mean_r2: float
    stage1_per_fold_r2: list[float] | None = None
    grid: list[GridRow] | None = None


@dataclass
class PretrainReport:
    config_echo: dict
    seed: int
    certain: int | str
    n_patients: int
    n_train: int
    n_test: int
    parameters: dict[str, ParameterResult] = field(default_factory=dict)
    mean_r2: float = float("nan")
    wall_clock_seconds: float = 0.0  # kept on the object, not serialized

    @property
    def method(self) -> str:
        return self.config_echo["method"]

    @property
    def interp(self) -> str:
        return self.config_echo["interp"]


def _config_echo(config: TrainConfig) -> dict:
    return {
        "method": config.method.value,
        "interp": config.interp.value,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        # fixed settings, echoed so that the report keeps its keys
        "beta1": nc.ADAM_BETA1,
        "beta2": nc.ADAM_BETA2,
        "epsilon": nc.ADAM_EPSILON,
        "folds": config.folds,
        "split_ratio": config.split_ratio,
        "parameters": [p.value for p in config.parameters],
        "stop_rollout_gradients": False,
    }


def argmax_certain(means: list[float]) -> int:
    """Index of the best mean; ties break toward the smaller threshold."""
    best = 0
    for candidate, value in enumerate(means):
        if value > means[best]:
            best = candidate
    return best


def _half_width(values: list[float]) -> float:
    arr = np.asarray(values)
    if arr.size < 2 or arr.std(ddof=1) == 0.0:
        return 0.0
    return float(t_ppf975(arr.size - 1) * arr.std(ddof=1) / np.sqrt(arr.size))


def _job_config(config: TrainConfig, parameter: LabParameter, certain: int, fold: int) -> TrainConfig:
    return replace(
        config,
        certain=certain,
        seed=derive_seed(config.seed, parameter.value, "certain", certain, "fold", fold),
    )


def _run_parameter_cv(args):
    """Fold-rotated training for one (parameter, certain) cell.

    Returns (per-fold final R^2, per-fold supervised-intermediate R^2 or None).
    """
    patients_train, test_frames, cache, config, parameter, certain = args
    folds = make_folds(patients_train, config.folds, derive_seed(config.seed, "cv"))
    fold_r2, stage1_r2 = [], []
    for k in range(config.folds):
        fit_patients = [p for j, fold in enumerate(folds) if j != k for p in fold]
        stage1, stage2 = assemble_frames(cache, fit_patients, certain)
        job = _job_config(config, parameter, certain, k)
        intermediate, final = train_by_method(stage1, stage2, job)
        fold_r2.append(evaluate_r2(final, test_frames))
        if config.method is TrainMethod.TWO_STAGE:
            stage1_r2.append(evaluate_r2(intermediate, test_frames))
    return fold_r2, (stage1_r2 if stage1_r2 else None)


def _parameter_cells(patients, config: TrainConfig, certains: list[int]):
    """Yield one CV job per (parameter, certain), with shared frame caches."""
    train, test = split_cohort(patients, config.split_ratio, config.seed)
    if len(train) < config.folds:
        raise ConfigError(f"{len(train)} training patients cannot fill {config.folds} folds")
    cells = []
    for parameter in config.parameters:
        cache = build_frame_cache(train, parameter, config.interp)
        test_cache = build_frame_cache(test, parameter, config.interp)
        _, test_frames = assemble_frames(test_cache, test, certain=0)
        if len(test_frames) < 2:
            raise ConfigError("test split yields fewer than 2 rollout frames")
        for certain in certains:
            cells.append((train, test_frames, cache, config, parameter, certain))
    return train, test, cells


def _execute(fn, cells, jobs: int):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, cells))
    return [fn(cell) for cell in cells]


def _grid_row(certain: int, fold_r2: list[float], stage1_r2: list[float] | None) -> GridRow:
    delta = None if stage1_r2 is None else float(np.mean(fold_r2) - np.mean(stage1_r2))
    return GridRow(certain, float(np.mean(fold_r2)), _half_width(fold_r2), delta)


def _pretrain(patients: list[Patient], config: TrainConfig, certains: list[int],
              jobs: int) -> PretrainReport:
    """Fold-rotated training at each threshold in `certains`; per parameter the
    argmax mean R^2 is chosen, ties toward the earlier threshold. A report of
    one threshold carries no grid."""
    config.validate()
    started = time.perf_counter()
    train, test, cells = _parameter_cells(patients, config, certains)
    results = _execute(_run_parameter_cv, cells, jobs)
    by_parameter: dict[str, list[tuple[int, list[float], list[float] | None]]] = {}
    for (_, _, _, _, parameter, certain), (fold_r2, stage1_r2) in zip(cells, results):
        by_parameter.setdefault(parameter.value, []).append((certain, fold_r2, stage1_r2))

    report = PretrainReport(
        config_echo=_config_echo(config), seed=config.seed,
        certain=certains[0] if len(certains) == 1 else "sweep",
        n_patients=len(patients), n_train=len(train), n_test=len(test),
    )
    for parameter in config.parameters:
        rows = by_parameter[parameter.value]
        grid = [_grid_row(*row) for row in rows]
        chosen = argmax_certain([row.mean_r2 for row in grid])
        _, chosen_fold_r2, chosen_stage1 = rows[chosen]
        report.parameters[parameter.value] = ParameterResult(
            parameter=parameter.value,
            chosen_certain=grid[chosen].certain,
            per_fold_r2=chosen_fold_r2,
            mean_r2=grid[chosen].mean_r2,
            stage1_per_fold_r2=chosen_stage1,
            grid=grid if len(certains) > 1 else None,
        )
    report.mean_r2 = float(np.mean([p.mean_r2 for p in report.parameters.values()]))
    report.wall_clock_seconds = time.perf_counter() - started
    return report


def cross_validate(patients: list[Patient], config: TrainConfig, jobs: int = 1) -> PretrainReport:
    """Fold-rotated training at the configured certainty threshold."""
    return _pretrain(patients, config, [config.certain], jobs)


def sweep_certain(patients: list[Patient], config: TrainConfig, jobs: int = 1) -> PretrainReport:
    """Grid-search certain in 0..5 per parameter; argmax mean R^2, ties toward
    the smaller threshold."""
    return _pretrain(patients, config, list(range(6)), jobs)


def train_final_models(
    patients: list[Patient], config: TrainConfig, chosen: dict[str, int], jobs: int = 1
) -> dict[LabParameter, nc.GlpModel]:
    """Train one deployable model per parameter on the full training split."""
    train, _ = split_cohort(patients, config.split_ratio, config.seed)
    cells = []
    for parameter in config.parameters:
        cache = build_frame_cache(train, parameter, config.interp)
        certain = chosen[parameter.value]
        stage1, stage2 = assemble_frames(cache, train, certain)
        job = replace(config, certain=certain, seed=derive_seed(config.seed, parameter.value, "final"))
        cells.append((stage1, stage2, job, parameter))
    results = _execute(_train_final_model, cells, jobs)
    return {parameter: model for (_, _, _, parameter), model in zip(cells, results)}


def _train_final_model(cell):
    stage1, stage2, job, _ = cell
    _, model = train_by_method(stage1, stage2, job)
    return model


# ---------------------------------------------------------------------------
# report serialization


def report_to_dict(report: PretrainReport) -> dict:
    """Canonical JSON payload; excludes wall clock so equal runs serialize
    byte-identically."""
    return {
        "config": report.config_echo,
        "seed": report.seed,
        "certain": report.certain,
        "n_patients": report.n_patients,
        "n_train": report.n_train,
        "n_test": report.n_test,
        "mean_r2": report.mean_r2,
        "parameters": {
            name: {
                "chosen_certain": result.chosen_certain,
                "per_fold_r2": result.per_fold_r2,
                "mean_r2": result.mean_r2,
                "stage1_per_fold_r2": result.stage1_per_fold_r2,
                "grid": None
                if result.grid is None
                else [
                    {
                        "certain": row.certain,
                        "mean_r2": row.mean_r2,
                        "ci95_half_width": row.ci95_half_width,
                        "stage2_delta": row.stage2_delta,
                    }
                    for row in result.grid
                ],
            }
            for name, result in report.parameters.items()
        },
    }


def write_pretrain_report(report: PretrainReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_certain_grid_csv(report: PretrainReport, path) -> None:
    """Sweep grid, one row per (parameter, certain)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["parameter", "method", "interp", "certain", "mean_r2", "ci95_half_width",
             "stage2_delta", "chosen"]
        )
        for name, result in report.parameters.items():
            rows = result.grid or [
                _grid_row(result.chosen_certain, result.per_fold_r2, result.stage1_per_fold_r2)
            ]
            for row in rows:
                writer.writerow(
                    [
                        name, report.method, report.interp, row.certain,
                        repr(row.mean_r2), repr(row.ci95_half_width),
                        "" if row.stage2_delta is None else repr(row.stage2_delta),
                        1 if row.certain == result.chosen_certain else 0,
                    ]
                )
