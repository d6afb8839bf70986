import dataclasses

import numpy as np
import pytest

from glp import netcore as nc
from glp.cohort import GeneratorSpec, LabParameter, generate_pretext_cohort
from glp.errors import ConfigError, EvaluationError, TrainingError
from glp.interp import InterpMethod
from glp.pipeline import (
    TrainConfig,
    TrainMethod,
    _fit,
    _scaled_init,
    argmax_certain,
    assemble_frames,
    build_frame_cache,
    cross_validate,
    evaluate_r2,
    frame_set,
    make_folds,
    split_cohort,
    train_by_method,
    train_hybrid,
    train_stage1,
    train_stage2,
)
from glp.seeding import rng_from
from helpers import views_alias_vector

QUICK = TrainConfig(epochs=4, seed=5)


@pytest.fixture(scope="module")
def small_cohort():
    return generate_pretext_cohort(GeneratorSpec(n_patients=30, seed=21))


@pytest.fixture(scope="module")
def frames(small_cohort):
    cache = build_frame_cache(small_cohort, LabParameter.WBC, InterpMethod.LINEAR)
    return assemble_frames(cache, small_cohort, certain=0)


def test_train_stage1_requires_frames():
    with pytest.raises(TrainingError, match="certainty filter"):
        train_stage1([], QUICK)


def test_stage2_rejects_parameter_mismatch(frames):
    s1, s2 = frames
    model = nc.init_model(LabParameter.UA, 0, 1)
    with pytest.raises(TrainingError, match="does not match"):
        train_stage2(model, s2, QUICK)


def test_training_determinism(frames):
    s1, _ = frames
    a = train_stage1(s1[:60], QUICK)
    b = train_stage1(s1[:60], QUICK)
    assert np.array_equal(a.vector, b.vector)


def test_stage2_with_zero_gaps_equals_stage1(frames):
    s1, _ = frames
    subset = s1[:60]
    config = QUICK
    supervised = train_stage1(subset, config)
    start = _scaled_init(LabParameter.WBC, config, subset)
    via_stage2 = train_stage2(start, subset, config)
    assert np.array_equal(supervised.vector, via_stage2.vector)
    # identical per-batch loss sequences as well
    start1 = _scaled_init(LabParameter.WBC, config, subset)
    start2 = _scaled_init(LabParameter.WBC, config, subset)
    _, h1 = _fit(start1, frame_set(subset), None, config, rng_from(config.seed, "fit"))
    _, h2 = _fit(start2, frame_set(subset), None, config, rng_from(config.seed, "fit"))
    assert h1 == h2


def test_hybrid_without_stage2_equals_supervised(frames):
    s1, _ = frames
    subset = s1[:60]
    assert np.array_equal(
        train_hybrid(subset, [], QUICK).vector, train_stage1(subset, QUICK).vector
    )


def test_hybrid_runs_with_both_sets(frames):
    s1, s2 = frames
    model = train_hybrid(s1[:40], s2[:10], QUICK)
    assert model.parameter is LabParameter.WBC


def test_all_methods_complete(frames):
    s1, s2 = frames
    for method in TrainMethod:
        config = dataclasses.replace(QUICK, method=method)
        _, model = train_by_method(s1[:40], s2[:12], config)
        assert np.all(np.isfinite(model.vector))


def test_loss_decreases_on_planted_data(frames):
    s1, _ = frames
    config = dataclasses.replace(QUICK, epochs=12)
    drops = []
    for seed in range(5):
        cfg = dataclasses.replace(config, seed=seed)
        start = _scaled_init(LabParameter.WBC, cfg, s1)
        _, history = _fit(start, frame_set(s1), None, cfg, rng_from(seed, "fit"))
        first = np.mean(history[: len(history) // 12])
        last = np.mean(history[-len(history) // 12 :])
        drops.append(last - first)
    assert np.median(drops) < 0.0


def test_single_frame_overfit(frames):
    s1, _ = frames
    config = dataclasses.replace(QUICK, epochs=400, learning_rate=5e-3)
    model = train_stage1(s1[:1], config)
    pred, _, _, _ = nc.rollout_forward(model, s1[0].input[None], 0)
    assert (pred[0] - s1[0].target) ** 2 < 1e-4


def test_rollout_gap_zero_equals_single_pass(frames):
    s1, _ = frames
    model = train_stage1(s1[:40], QUICK)
    x = s1[7].input[None]
    pred, latents, _, _ = nc.rollout_forward(model, x, 0)
    out, _ = nc.libc_forward(model.libc, x)
    direct, _ = nc.regressor_forward(model.regressor, out[:, -1, :])
    assert pred[0] == direct[0]
    assert len(latents) == 1


@pytest.mark.parametrize("gap", [1, 3, 6])
def test_rollout_trajectory_length(frames, gap):
    s1, _ = frames
    model = train_stage1(s1[:40], QUICK)
    _, latents, _, _ = nc.rollout_forward(model, s1[0].input[None], gap)
    assert len(latents) == gap
    assert all(latent.shape == (1, 5) for latent in latents)


def test_rollout_zero_weights():
    model = nc.vector_to_model(np.zeros(nc.n_parameters()), LabParameter.WBC, 0)
    x = np.abs(np.random.default_rng(0).normal(1.0, 0.2, (1, 12, 5)))
    for gap in (0, 2, 5):
        pred, _, _, _ = nc.rollout_forward(model, x, gap)
        assert pred[0] == 0.0


def test_evaluate_r2_validation(frames):
    s1, _ = frames
    model = train_stage1(s1[:40], QUICK)
    with pytest.raises(EvaluationError):
        evaluate_r2(model, s1[:1])


def test_split_shapes():
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=100, seed=2))
    train, test = split_cohort(patients, 0.8, seed=4)
    assert len(train) == 80 and len(test) == 20
    assert {p.patient_id for p in train}.isdisjoint({p.patient_id for p in test})
    folds = make_folds(train, 5, seed=4)
    assert [len(f) for f in folds] == [16] * 5
    ids = [p.patient_id for fold in folds for p in fold]
    assert sorted(ids) == sorted(p.patient_id for p in train)


def test_fold_sizes_differ_by_at_most_one():
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=23, seed=2))
    folds = make_folds(patients, 5, seed=0)
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 23


def test_bucketed_batches_single_gap_each(frames):
    from glp.pipeline import _bucket_batches

    _, s2 = frames
    data = frame_set(s2)
    perm = np.random.default_rng(0).permutation(len(s2))
    batches = _bucket_batches(data, perm, 4)
    seen = []
    for indices, gap in batches:
        assert np.all(data.gaps[indices] == gap)
        seen.extend(indices.tolist())
    assert sorted(seen) == list(range(len(s2)))


def test_argmax_certain_tie_break():
    assert argmax_certain([0.1, 0.5, 0.5, 0.2, 0.5, 0.0]) == 1
    assert argmax_certain([0.0, 0.0, 0.0, 0.0, 0.0, 0.0]) == 0
    assert argmax_certain([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]) == 5


def test_cross_validate_report(small_cohort):
    config = TrainConfig(
        epochs=2, seed=9, folds=3, parameters=(LabParameter.WBC,), method=TrainMethod.TWO_STAGE
    )
    report = cross_validate(small_cohort, config)
    result = report.parameters["WBC"]
    assert len(result.per_fold_r2) == 3
    assert result.mean_r2 == pytest.approx(np.mean(result.per_fold_r2), abs=1e-12)
    assert result.stage1_per_fold_r2 is not None
    assert report.mean_r2 == pytest.approx(result.mean_r2, abs=1e-12)
    # determinism
    again = cross_validate(small_cohort, config)
    assert again.parameters["WBC"].per_fold_r2 == result.per_fold_r2


def test_cross_validate_rejects_too_few_patients():
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=5, seed=3))
    config = TrainConfig(folds=5, parameters=(LabParameter.WBC,))
    with pytest.raises(ConfigError, match="folds"):
        cross_validate(patients, config)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(folds=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(split_ratio=1.2).validate()
    with pytest.raises(ConfigError):
        TrainConfig(certain=7).validate()


def test_sweep_certain_grid(small_cohort):
    from glp.pipeline import sweep_certain

    config = TrainConfig(
        epochs=2, seed=4, folds=2, parameters=(LabParameter.WBC,), method=TrainMethod.SSL_ONLY
    )
    report = sweep_certain(small_cohort, config)
    result = report.parameters["WBC"]
    assert [row.certain for row in result.grid] == [0, 1, 2, 3, 4, 5]
    means = [row.mean_r2 for row in result.grid]
    assert result.chosen_certain == argmax_certain(means)
    assert result.mean_r2 == means[result.chosen_certain]
    again = sweep_certain(small_cohort, config)
    assert again.parameters["WBC"].chosen_certain == result.chosen_certain
    assert [row.mean_r2 for row in again.parameters["WBC"].grid] == means


def test_sweep_certain_filter_changes_supervised(small_cohort):
    from glp.pipeline import sweep_certain

    config = TrainConfig(
        epochs=2, seed=4, folds=2, parameters=(LabParameter.WBC,),
        method=TrainMethod.SUPERVISED_ONLY,
    )
    report = sweep_certain(small_cohort, config)
    means = [row.mean_r2 for row in report.parameters["WBC"].grid]
    assert len(set(means)) > 1  # the threshold actually filters frames


def test_parallel_jobs_match_sequential(small_cohort):
    config = TrainConfig(
        epochs=2, seed=6, folds=2, parameters=(LabParameter.WBC, LabParameter.UA)
    )
    sequential = cross_validate(small_cohort, config, jobs=1)
    parallel = cross_validate(small_cohort, config, jobs=2)
    for name in ("WBC", "UA"):
        assert sequential.parameters[name].per_fold_r2 == parallel.parameters[name].per_fold_r2


def test_scaled_init_views_alias_the_vector(frames):
    s1, _ = frames
    assert views_alias_vector(_scaled_init(LabParameter.WBC, QUICK, s1[:20]))


def test_final_models_from_workers_match_and_keep_views(small_cohort):
    from glp.pipeline import train_final_models

    config = TrainConfig(epochs=2, seed=8, parameters=(LabParameter.WBC, LabParameter.UA))
    chosen = {"WBC": 2, "UA": 0}
    sequential = train_final_models(small_cohort, config, chosen, jobs=1)
    parallel = train_final_models(small_cohort, config, chosen, jobs=2)
    for parameter, model in parallel.items():
        assert np.array_equal(model.vector, sequential[parameter].vector)
        assert views_alias_vector(model)
        model.regressor.b3[0] += 1.0  # a write through a view reaches the vector
        assert not np.array_equal(model.vector, sequential[parameter].vector)


def test_train_final_models_respects_chosen(small_cohort):
    from glp.pipeline import train_final_models

    config = TrainConfig(epochs=2, seed=8, parameters=(LabParameter.WBC, LabParameter.UA))
    chosen = {"WBC": 2, "UA": 0}
    models = train_final_models(small_cohort, config, chosen)
    assert models[LabParameter.WBC].certain == 2
    assert models[LabParameter.UA].certain == 0
    assert models[LabParameter.WBC].parameter is LabParameter.WBC
