"""Training methods, rollout inference, and the validation harness.

Four training methods, dispatched by `train_by_method`, share one
deterministic fitting loop, `_lockstep`, which trains a stack of models:

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

Every training function takes a list of `Fit`s, a stack, and one model is a
stack of one. Each model keeps its own data, random stream, schedule and
optimizer state; at each step the models whose next batches share batch
length and gap take one stacked `netcore` step, whatever their parameters.
A stacked step computes for each model exactly the bits of its solo step, so
a model trains to the same weights whatever stack it is in. Cross-validation
trains every (parameter, threshold, fold) fit of a run as one stack, and
every report carries its six final models: with a fixed threshold they join
that stack; after a sweep, whose thresholds the scores choose, they train
inside `sweep_certain` as a second stack. With `jobs` > 1 a stack is split
into `jobs` stacks, one per worker process. `assemble_frames` stacks each
parameter's frames once into a `FrameSet`, the first-stage frames at the
smallest threshold trained; each fit holds index rows into them, filtered by
its own threshold. The held-out
split is framed for rollouts only, one set per parameter.

Validation holds out a patient-level test split once per seed, rotates folds
inside the training split for repetition, and scores rollout forecasts of
each held-out patient's final observation with R-squared on normalized
targets. Each parameter's fold models, and for two-stage their supervised
intermediates, are scored as one stack: one stacked rollout per gap on the
shared held-out batch, each model with the bits of its solo rollout.
`sweep_certain` grid-searches the certainty threshold 0..5 per lab parameter
and picks the argmax mean R-squared (ties toward the smaller threshold).
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import partial

import numpy as np

from . import netcore as nc
from .artifacts import write_csv
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


MAX_EPOCHS = 10_000  # fixed, so that a config cannot ask for unbounded training


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

    def __post_init__(self) -> None:
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ConfigError(f"epochs must be >= 1 and <= {MAX_EPOCHS}")
        if not self.folds >= 2:
            raise ConfigError("folds must be >= 2")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        if not 0 <= self.certain <= 5:
            raise ConfigError("certain must be in [0, 5]")
        if not self.batch_size >= 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")


# ---------------------------------------------------------------------------
# frame assembly


@dataclass
class FrameSet:
    """Frames stacked once: inputs, targets, gaps and counts of real months as
    rows of shared arrays, with the rows of each patient's frames. `rows`
    lists the set's frames in order, so the sets of many fits share one copy
    of the arrays."""

    x: np.ndarray            # (N, 12, 5)
    targets: np.ndarray      # (N,)
    gaps: np.ndarray         # (N,) int
    real_counts: np.ndarray  # (N,) int
    patient_rows: dict[str, list[int]]
    rows: np.ndarray         # (n,) int

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def of(cls, frames: list[Frame]) -> FrameSet:
        patient_rows: dict[str, list[int]] = {}
        for row, frame in enumerate(frames):
            patient_rows.setdefault(frame.patient_id, []).append(row)
        return cls(
            np.stack([f.input for f in frames]) if frames else np.empty((0, 12, 5)),
            np.array([f.target for f in frames], dtype=float),
            np.array([f.gap for f in frames], dtype=int),
            np.array([f.real_count for f in frames], dtype=int),
            patient_rows,
            np.arange(len(frames)),
        )

    def select(self, patients: list[Patient] | None = None, certain: int = 0) -> FrameSet:
        """The frames of `patients` (by default every patient of the set),
        patient by patient in the given order, with at least `certain` real
        months."""
        if patients is None:
            rows = np.arange(len(self.real_counts))
        else:
            rows = np.array([row for p in patients
                             for row in self.patient_rows.get(p.patient_id, ())], dtype=int)
        return replace(self, rows=rows[self.real_counts[rows] >= certain])


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
) -> tuple[FrameSet, FrameSet]:
    """The patients' first-stage frames with at least `certain` real months
    and their rollout frames, each kind stacked once, patient by patient."""
    stage1, stage2 = [], []
    for patient in patients:
        s1, s2 = cache[patient.patient_id]
        stage1.extend(f for f in s1 if f.real_count >= certain)
        if s2 is not None:
            stage2.append(s2)
    return FrameSet.of(stage1), FrameSet.of(stage2)


# ---------------------------------------------------------------------------
# lockstep fitting

# The most models one stacked step trains; a wider group steps in consecutive
# chunks, which bounds the step's temporaries (every member's encoder trace).
_MAX_STACK = 36


@dataclass
class Fit:
    """One model of a stack: its lab parameter, certainty threshold, seed and
    frames. The stack shares the rest of one `TrainConfig`."""

    parameter: LabParameter
    certain: int
    seed: int
    stage1: FrameSet
    stage2: FrameSet


def _bucket_batches(data: FrameSet, perm: np.ndarray, batch_size: int):
    """Split a shuffled order of the set's frames into same-gap batches of
    shared-array rows (ascending gap, order within a bucket preserved)."""
    rows = data.rows[perm]
    gaps = data.gaps[rows]
    rows = rows[np.argsort(gaps, kind="stable")]
    batches = []
    for gap, count in zip(*np.unique(gaps, return_counts=True)):
        bucket, rows = rows[:count], rows[count:]
        for start in range(0, count, batch_size):
            batches.append((bucket[start : start + batch_size], int(gap)))
    return batches


def _batches(sources: list[FrameSet], config: TrainConfig, rng: np.random.Generator):
    """One model's batches over all epochs, (set, rows, gap): one permutation
    per non-empty source and epoch drawn in source order, the sources'
    batches taken round robin."""
    for _ in range(config.epochs):
        schedules = [
            [(data, *batch) for batch in
             _bucket_batches(data, rng.permutation(len(data)), config.batch_size)]
            for data in sources if len(data)
        ]
        for batches in itertools.zip_longest(*schedules):
            yield from filter(None, batches)


def _lockstep(
    models: list[nc.GlpModel],
    sources: list[list[FrameSet]],
    rngs: list[np.random.Generator],
    config: TrainConfig,
) -> tuple[list[nc.GlpModel], list[list[float]]]:
    """Adam for a stack of models in lockstep; returns trained copies and
    each model's per-batch losses.

    Model i takes the batches of `sources[i]` drawn from `rngs[i]`, exactly
    its solo schedule. At each step the models still training are grouped by
    batch length and gap; each group, in chunks of at most `_MAX_STACK`
    models, takes one stacked loss-and-gradient call on a stack that names
    each member's parameter, and one stacked Adam update. A model whose
    schedule has ended leaves the groups: nothing is padded or masked, so
    every model's arithmetic is that of its solo fit.
    """
    vectors = np.stack([model.vector for model in models])
    adam = nc.AdamState.create(vectors.shape, config.learning_rate)
    histories: list[list[float]] = [[] for _ in models]
    pending = {i: _batches(src, config, rng) for i, (src, rng) in enumerate(zip(sources, rngs))}
    while pending:
        groups: dict[tuple, list[tuple[int, FrameSet, np.ndarray]]] = {}
        for i, batches in list(pending.items()):
            batch = next(batches, None)
            if batch is None:
                del pending[i]
                continue
            data, rows, gap = batch
            groups.setdefault((len(rows), gap), []).append((i, data, rows))
        for (_, gap), group in groups.items():
            for start in range(0, len(group), _MAX_STACK):
                members = group[start : start + _MAX_STACK]
                idx = np.array([i for i, _, _ in members])
                stack = nc.GlpModel(tuple(models[i].parameter for i in idx), 0, vectors[idx])
                x0 = np.stack([data.x[rows] for _, data, rows in members])
                targets = np.stack([data.targets[rows] for _, data, rows in members])
                losses, grads = nc.rollout_loss_and_grads(stack, x0, targets, gap)
                state = nc.AdamState(adam.m[idx], adam.v[idx], adam.step[idx], adam.learning_rate)
                vectors[idx], state = nc.adam_step(stack.vector, grads, state)
                adam.m[idx], adam.v[idx], adam.step[idx] = state.m, state.v, state.step
                for i, loss in zip(idx, losses):
                    histories[i].append(float(loss))
    trained = [nc.vector_to_model(vector, model.parameter, model.certain)
               for vector, model in zip(vectors, models)]
    return trained, histories


def _require(data: FrameSet, what: str) -> None:
    if not len(data):
        raise TrainingError(f"no frames after certainty filter ({what})")


def _scaled_init(fit: Fit, *sets: FrameSet) -> nc.GlpModel:
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
    model = nc.init_model(fit.parameter, fit.certain, derive_seed(fit.seed, "init"))
    x_bar = np.mean(np.concatenate([data.x[data.rows] for data in sets]), axis=(0, 1))
    t_bar = float(np.mean(np.concatenate([data.targets[data.rows] for data in sets])))
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


def train_stage1(fits: list[Fit], config: TrainConfig) -> list[nc.GlpModel]:
    """Supervised training of a stack on its sliding interpolated frames
    (all gaps 0)."""
    for fit in fits:
        _require(fit.stage1, "stage 1")
    models = [_scaled_init(fit, fit.stage1) for fit in fits]
    models, histories = _lockstep(
        models, [[fit.stage1] for fit in fits],
        [rng_from(fit.seed, "fit") for fit in fits], config)
    for model, history in zip(models, histories):
        logger.debug("stage1 %s: loss %.5f -> %.5f", model.parameter.value, history[0], history[-1])
    return models


def train_stage2(models: list[nc.GlpModel], fits: list[Fit], config: TrainConfig,
                 rng_label: str = "fit") -> list[nc.GlpModel]:
    """Rollout training of a stack, continuing from existing models."""
    for model, fit in zip(models, fits, strict=True):
        _require(fit.stage2, "stage 2")
        if fit.parameter is not model.parameter:
            raise TrainingError("frame parameter does not match the model")
    models, histories = _lockstep(
        models, [[fit.stage2] for fit in fits],
        [rng_from(fit.seed, rng_label) for fit in fits], config)
    for model, history in zip(models, histories):
        logger.debug("stage2 %s: loss %.5f -> %.5f", model.parameter.value, history[0], history[-1])
    return models


def train_hybrid(fits: list[Fit], config: TrainConfig) -> list[nc.GlpModel]:
    """Interleaved supervised and rollout batches, one optimizer state per
    model."""
    for fit in fits:
        _require(fit.stage1, "stage 1")
    models = [_scaled_init(fit, fit.stage1, fit.stage2) for fit in fits]
    models, _ = _lockstep(
        models, [[fit.stage1, fit.stage2] for fit in fits],
        [rng_from(fit.seed, "fit") for fit in fits], config)
    return models


def train_by_method(fits: list[Fit], config: TrainConfig
                    ) -> list[tuple[nc.GlpModel | None, nc.GlpModel]]:
    """Train a stack by the config's method; returns (stage1_model_or_None,
    final_model) per fit."""
    if config.method is TrainMethod.SUPERVISED_ONLY:
        return [(model, model) for model in train_stage1(fits, config)]
    if config.method is TrainMethod.HYBRID:
        return [(None, model) for model in train_hybrid(fits, config)]
    if config.method is TrainMethod.SSL_ONLY:
        for fit in fits:
            _require(fit.stage2, "stage 2")
        inits = [_scaled_init(fit, fit.stage2) for fit in fits]
        return [(None, model) for model in train_stage2(inits, fits, config)]
    intermediates = train_stage1(fits, config)
    return list(zip(intermediates, train_stage2(intermediates, fits, config, "fit-stage2")))


# ---------------------------------------------------------------------------
# inference and scoring


def evaluate_r2(models: list[nc.GlpModel], data: FrameSet) -> list[float]:
    """Rollout forecasts of held-out frames by a stack of models, each model's
    scored against the normalized targets: one R^2 per model. The models roll
    out as one stack per gap on the shared held-out batch, each with the bits
    of its solo rollout."""
    if len(data) < 2:
        raise EvaluationError("evaluate_r2 needs >= 2 held-out frames")
    stack = nc.GlpModel(tuple(model.parameter for model in models), 0,
                        np.stack([model.vector for model in models]))
    x, gaps = data.x[data.rows], data.gaps[data.rows]
    predictions = np.empty((len(models), len(data)))
    for gap in np.unique(gaps):
        mask = gaps == gap
        preds, _, _, _ = nc.rollout_forward(stack, x[mask], int(gap))
        predictions[:, mask] = preds
    targets = data.targets[data.rows]
    return [r_squared(row, targets) for row in predictions]


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
    # kept on the object, not serialized
    wall_clock_seconds: float = 0.0
    final_models: dict[LabParameter, nc.GlpModel] = field(default_factory=dict, repr=False)

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


def _in_stacks(fn, fits: list[Fit], jobs: int) -> list:
    """fn over the fits as one stack, or as `jobs` stacks of consecutive fits,
    one per worker process; results in fit order."""
    if jobs <= 1:
        return fn(fits)
    # imported here: with one job (the default) no command pays for the pool
    from concurrent.futures import ProcessPoolExecutor

    chunks = [fits[len(fits) * k // jobs : len(fits) * (k + 1) // jobs] for k in range(jobs)]
    chunks = [chunk for chunk in chunks if chunk]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return [result for part in pool.map(fn, chunks) for result in part]


def _grid_row(certain: int, fold_r2: list[float], stage1_r2: list[float] | None) -> GridRow:
    delta = None if stage1_r2 is None else float(np.mean(fold_r2) - np.mean(stage1_r2))
    return GridRow(certain, float(np.mean(fold_r2)), _half_width(fold_r2), delta)


def _final_fit(parameter: LabParameter, certain: int, frames: tuple[FrameSet, FrameSet],
               seed: int) -> Fit:
    """The deployable model's fit: the whole training split at `certain`."""
    stage1, stage2 = frames
    return Fit(parameter, certain, derive_seed(seed, parameter.value, "final"),
               stage1.select(certain=certain), stage2.select())


def _pretrain(patients: list[Patient], config: TrainConfig, certains: list[int],
              jobs: int) -> PretrainReport:
    """Fold-rotated training at each threshold in `certains`, every fit of
    every (parameter, threshold, fold) in one stack; per parameter the argmax
    mean R^2 is chosen, ties toward the earlier threshold. A report of one
    threshold carries no grid, and its final models train in the same stack;
    after a sweep they train as one more stack at the chosen thresholds. Each
    parameter's fold models (and two-stage intermediates) are scored as one
    stack on its held-out rollout frames."""
    started = time.perf_counter()
    train, test = split_cohort(patients, config.split_ratio, config.seed)
    if len(train) < config.folds:
        raise ConfigError(f"{len(train)} training patients cannot fill {config.folds} folds")
    folds = make_folds(train, config.folds, derive_seed(config.seed, "cv"))
    fit_patients = [[p for j, fold in enumerate(folds) if j != k for p in fold]
                    for k in range(config.folds)]
    frames: dict[LabParameter, tuple[FrameSet, FrameSet]] = {}
    held_out: dict[LabParameter, FrameSet] = {}
    fits = []
    for parameter in config.parameters:
        rollouts = (build_stage2_frame(interpolate_series(p.series[parameter], config.interp),
                                       p.age_at_start, p.gender) for p in test)
        held_out[parameter] = FrameSet.of([frame for frame in rollouts if frame is not None])
        if len(held_out[parameter]) < 2:
            raise ConfigError("test split yields fewer than 2 rollout frames")
        # the cache is dropped at once: only the stacked sets outlive framing
        stage1, stage2 = frames[parameter] = assemble_frames(
            build_frame_cache(train, parameter, config.interp), train, min(certains))
        for certain in certains:
            for k, members in enumerate(fit_patients):
                seed = derive_seed(config.seed, parameter.value, "certain", certain, "fold", k)
                fits.append(Fit(parameter, certain, seed, stage1.select(members, certain),
                                stage2.select(members)))
    # with one threshold the final fits are known before any score: they join the stack
    finals = ([_final_fit(parameter, certains[0], frames[parameter], config.seed)
               for parameter in config.parameters] if len(certains) == 1 else [])
    trained = _in_stacks(partial(train_by_method, config=config), fits + finals, jobs)

    report = PretrainReport(
        config_echo=_config_echo(config), seed=config.seed,
        certain=certains[0] if len(certains) == 1 else "sweep",
        n_patients=len(patients), n_train=len(train), n_test=len(test),
        final_models={fit.parameter: final for fit, (_, final) in zip(finals, trained[len(fits):])},
    )
    two_stage = config.method is TrainMethod.TWO_STAGE
    cells = len(certains) * config.folds
    for index, parameter in enumerate(config.parameters):
        models = trained[index * cells : (index + 1) * cells]
        r2 = evaluate_r2([final for _, final in models]
                         + ([intermediate for intermediate, _ in models] if two_stage else []),
                         held_out[parameter])
        rows = []
        for c, certain in enumerate(certains):
            cell = slice(c * config.folds, (c + 1) * config.folds)
            rows.append((certain, r2[cell], r2[cells:][cell] if two_stage else None))
        grid = [_grid_row(*row) for row in rows]
        chosen = argmax_certain([row.mean_r2 for row in grid])
        _, chosen_fold_r2, chosen_stage1 = rows[chosen]
        report.parameters[parameter.value] = ParameterResult(
            chosen_certain=grid[chosen].certain,
            per_fold_r2=chosen_fold_r2,
            mean_r2=grid[chosen].mean_r2,
            stage1_per_fold_r2=chosen_stage1,
            grid=grid if len(certains) > 1 else None,
        )
    report.mean_r2 = float(np.mean([p.mean_r2 for p in report.parameters.values()]))
    if len(certains) > 1:  # the scores chose the thresholds: the final fits train now
        finals = [_final_fit(parameter, report.parameters[parameter.value].chosen_certain,
                             frames[parameter], config.seed)
                  for parameter in config.parameters]
        trained = _in_stacks(partial(train_by_method, config=config), finals, jobs)
        report.final_models = {fit.parameter: final for fit, (_, final) in zip(finals, trained)}
    report.wall_clock_seconds = time.perf_counter() - started
    return report


def cross_validate(patients: list[Patient], config: TrainConfig, jobs: int = 1) -> PretrainReport:
    """Fold-rotated training at the configured certainty threshold; the final
    models train in the same stack."""
    return _pretrain(patients, config, [config.certain], jobs)


def sweep_certain(patients: list[Patient], config: TrainConfig, jobs: int = 1) -> PretrainReport:
    """Grid-search certain in 0..5 per parameter; argmax mean R^2, ties toward
    the smaller threshold. The final models train after scoring, at each
    parameter's chosen threshold."""
    return _pretrain(patients, config, list(range(6)), jobs)


def train_final_models(report: PretrainReport) -> dict[LabParameter, nc.GlpModel]:
    """The report's deployable models, one per parameter, each trained on the
    whole training split at the parameter's chosen threshold. Each call
    returns copies, so a write through a returned model leaves the report's
    model as it was."""
    return {parameter: nc.GlpModel(model.parameter, model.certain, model.vector.copy())
            for parameter, model in report.final_models.items()}


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
        "parameters": {name: asdict(result) for name, result in report.parameters.items()},
    }


def write_certain_grid_csv(report: PretrainReport, path) -> None:
    """Sweep grid, one row per (parameter, certain)."""
    write_csv(path, ["parameter", "method", "interp", "certain", "mean_r2", "ci95_half_width",
                     "stage2_delta", "chosen"], (
        [name, report.method, report.interp, row.certain,
         repr(row.mean_r2), repr(row.ci95_half_width),
         "" if row.stage2_delta is None else repr(row.stage2_delta),
         1 if row.certain == result.chosen_certain else 0]
        for name, result in report.parameters.items()
        for row in result.grid or [
            _grid_row(result.chosen_certain, result.per_fold_r2, result.stage1_per_fold_r2)]
    ))
