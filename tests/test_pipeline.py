import dataclasses
import gc

import numpy as np
import pytest

from glp import netcore as nc
from glp import pipeline
from glp.cohort import GeneratorSpec, LabParameter, generate_pretext_cohort
from glp.errors import ConfigError, EvaluationError, TrainingError
from glp.framing import Frame
from glp.interp import InterpMethod
from glp.pipeline import (
    Fit,
    FrameSet,
    TrainConfig,
    TrainMethod,
    _lockstep,
    _scaled_init,
    argmax_certain,
    assemble_frames,
    build_frame_cache,
    cross_validate,
    evaluate_r2,
    make_folds,
    report_to_dict,
    split_cohort,
    sweep_certain,
    train_by_method,
    train_final_models,
    train_hybrid,
    train_stage1,
    train_stage2,
)
from glp.seeding import derive_seed, rng_from
from glp.stats import r_squared
from helpers import views_alias_vector

QUICK = TrainConfig(epochs=4, seed=5)


def fit_of(stage1, stage2=(), seed=QUICK.seed, parameter=LabParameter.WBC):
    return Fit(parameter, 0, seed, FrameSet.of(list(stage1)), FrameSet.of(list(stage2)))


def frame_lists(cache):
    """Every first-stage frame and every rollout frame of a frame cache,
    patient by patient: the frames `assemble_frames(cache, patients, 0)`
    stacks, as `Frame` lists."""
    return ([frame for stage1, _ in cache.values() for frame in stage1],
            [stage2 for _, stage2 in cache.values() if stage2 is not None])


def stage1_model(frames, config=QUICK):
    return train_stage1([fit_of(frames, seed=config.seed)], config)[0]


@pytest.fixture(scope="module")
def small_cohort():
    return generate_pretext_cohort(GeneratorSpec(n_patients=30, seed=21))


@pytest.fixture(scope="module")
def frames(small_cohort):
    return frame_lists(build_frame_cache(small_cohort, LabParameter.WBC, InterpMethod.LINEAR))


def test_train_stage1_requires_frames():
    with pytest.raises(TrainingError, match="certainty filter"):
        train_stage1([fit_of([])], QUICK)


def test_stage2_rejects_parameter_mismatch(frames):
    s1, s2 = frames
    model = nc.init_model(LabParameter.UA, 0, 1)
    with pytest.raises(TrainingError, match="does not match"):
        train_stage2([model], [fit_of([], s2)], QUICK)


def test_training_determinism(frames):
    s1, _ = frames
    a = stage1_model(s1[:60])
    b = stage1_model(s1[:60])
    assert np.array_equal(a.vector, b.vector)


def test_stage2_with_zero_gaps_equals_stage1(frames):
    s1, _ = frames
    subset = s1[:60]
    config = QUICK
    supervised = stage1_model(subset, config)
    fit = fit_of([], subset)
    [via_stage2] = train_stage2([_scaled_init(fit, fit.stage2)], [fit], config)
    assert np.array_equal(supervised.vector, via_stage2.vector)
    # identical per-batch loss sequences as well
    start1 = _scaled_init(fit, fit.stage2)
    start2 = _scaled_init(fit, fit.stage2)
    _, [h1] = _lockstep([start1], [[FrameSet.of(subset)]], [rng_from(config.seed, "fit")], config)
    _, [h2] = _lockstep([start2], [[FrameSet.of(subset)]], [rng_from(config.seed, "fit")], config)
    assert h1 == h2


def test_hybrid_without_stage2_equals_supervised(frames):
    s1, _ = frames
    subset = s1[:60]
    assert np.array_equal(train_hybrid([fit_of(subset)], QUICK)[0].vector, stage1_model(subset).vector)


def test_hybrid_runs_with_both_sets(frames):
    s1, s2 = frames
    [model] = train_hybrid([fit_of(s1[:40], s2[:10])], QUICK)
    assert model.parameter is LabParameter.WBC


def test_all_methods_complete(frames):
    s1, s2 = frames
    for method in TrainMethod:
        config = dataclasses.replace(QUICK, method=method)
        [(_, model)] = train_by_method([fit_of(s1[:40], s2[:12])], config)
        assert np.all(np.isfinite(model.vector))


def test_loss_decreases_on_planted_data(frames):
    s1, _ = frames
    config = dataclasses.replace(QUICK, epochs=12)
    drops = []
    for seed in range(5):
        fit = fit_of(s1, seed=seed)
        start = _scaled_init(fit, fit.stage1)
        _, [history] = _lockstep([start], [[fit.stage1]], [rng_from(seed, "fit")], config)
        first = np.mean(history[: len(history) // 12])
        last = np.mean(history[-len(history) // 12 :])
        drops.append(last - first)
    assert np.median(drops) < 0.0


def test_single_frame_overfit(frames):
    s1, _ = frames
    config = dataclasses.replace(QUICK, epochs=400, learning_rate=5e-3)
    model = stage1_model(s1[:1], config)
    pred, _, _, _ = nc.rollout_forward(model, s1[0].input[None], 0)
    assert (pred[0] - s1[0].target) ** 2 < 1e-4


def test_rollout_gap_zero_equals_single_pass(frames):
    s1, _ = frames
    model = stage1_model(s1[:40])
    x = s1[7].input[None]
    pred, latents, _, _ = nc.rollout_forward(model, x, 0)
    out, _ = nc.libc_forward(model.libc, x)
    direct, _ = nc.regressor_forward(model.regressor, out[:, -1, :])
    assert pred[0] == direct[0]
    assert len(latents) == 1


@pytest.mark.parametrize("gap", [1, 3, 6])
def test_rollout_trajectory_length(frames, gap):
    s1, _ = frames
    model = stage1_model(s1[:40])
    at = tuple(np.full(1, k) for k in range(1, gap + 1))
    _, latents, _, _ = nc.rollout_forward(model, s1[0].input[None], gap, at=at)
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
    model = stage1_model(s1[:40])
    with pytest.raises(EvaluationError):
        evaluate_r2([model], FrameSet.of(s1[:1]))


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
    data = FrameSet.of(s2)
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


def test_held_out_split_is_framed_for_rollouts_only(small_cohort, monkeypatch):
    """Stage-1 framing reads only the training split; every fold model and
    intermediate is scored on the rollout frames of the held-out patients'
    full frame caches, in order."""
    config = TrainConfig(epochs=1, seed=9, folds=2, parameters=(LabParameter.WBC,))
    framed, build = [], pipeline.build_stage1_frames
    scored, evaluate = [], pipeline.evaluate_r2

    def recorded_build(series, *args, **kwargs):
        framed.append(series.patient_id)
        return build(series, *args, **kwargs)

    def recorded_evaluate(models, data):
        scored.extend(data for _ in models)
        return evaluate(models, data)

    monkeypatch.setattr(pipeline, "build_stage1_frames", recorded_build)
    monkeypatch.setattr(pipeline, "evaluate_r2", recorded_evaluate)
    cross_validate(small_cohort, config)
    train, test = split_cohort(small_cohort, config.split_ratio, config.seed)
    assert sorted(framed) == sorted(p.patient_id for p in train)
    monkeypatch.undo()
    _, cached = assemble_frames(build_frame_cache(test, LabParameter.WBC, config.interp), test, 0)
    assert len(scored) == 4 and len(cached) >= 2  # two folds, final and intermediate
    for held_out in scored:
        for name in ("x", "targets", "gaps", "real_counts", "rows"):
            assert np.array_equal(getattr(held_out, name), getattr(cached, name))
        assert held_out.patient_rows == cached.patient_rows


def test_cross_validate_rejects_too_few_patients():
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=5, seed=3))
    config = TrainConfig(folds=5, parameters=(LabParameter.WBC,))
    with pytest.raises(ConfigError, match="folds"):
        cross_validate(patients, config)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(folds=1)
    with pytest.raises(ConfigError):
        TrainConfig(split_ratio=1.2)
    with pytest.raises(ConfigError):
        TrainConfig(certain=7)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=float("nan"))


def test_sweep_certain_grid(small_cohort):
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
    # one threshold is the same run as that threshold's cell of the sweep
    single = cross_validate(small_cohort, dataclasses.replace(config, certain=result.chosen_certain))
    assert single.certain == result.chosen_certain
    assert single.parameters["WBC"].grid is None
    assert single.parameters["WBC"].per_fold_r2 == result.per_fold_r2
    assert single.parameters["WBC"].mean_r2 == means[result.chosen_certain]


def test_sweep_certain_filter_changes_supervised(small_cohort):
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
    fit = fit_of(s1[:20])
    assert views_alias_vector(_scaled_init(fit, fit.stage1))


def test_final_models_from_workers_match_and_keep_views(small_cohort):
    """Final models trained in worker processes, in the cross-validation stack
    or after a sweep, equal those of one process and keep their views; a
    write through a returned model leaves the report's model as it was."""
    config = TrainConfig(epochs=2, seed=8, folds=2, parameters=(LabParameter.WBC, LabParameter.UA))
    for pretrain in (cross_validate, sweep_certain):
        report = pretrain(small_cohort, config, jobs=1)
        from_workers = pretrain(small_cohort, config, jobs=2)
        assert report_to_dict(from_workers) == report_to_dict(report)
        sequential = train_final_models(report)
        parallel = train_final_models(from_workers)
        assert parallel.keys() == sequential.keys() == set(config.parameters)
        for parameter, model in parallel.items():
            assert np.array_equal(model.vector, sequential[parameter].vector)
            assert views_alias_vector(model)
            model.regressor.b3[0] += 1.0  # a write through a view reaches the vector
            assert not np.array_equal(model.vector, sequential[parameter].vector)
        for parameter, model in train_final_models(from_workers).items():
            assert np.array_equal(model.vector, sequential[parameter].vector)


def test_lockstep_stack_matches_solo_fits(small_cohort, monkeypatch):
    """Ragged schedules in one stack: different frame counts, both sources of
    hybrid, rollout gaps 0 to 5, two parameters, models that finish early.
    Each model's weights and per-batch losses equal its solo fit bit for bit,
    also when a group wider than the stack cap steps in chunks, and rollout
    steps stack models of both parameters."""
    frames = {}
    for parameter in (LabParameter.WBC, LabParameter.GLUCOSE_AC):
        frames[parameter] = frame_lists(build_frame_cache(small_cohort, parameter, InterpMethod.LINEAR))
    config = TrainConfig(epochs=2, batch_size=4, method=TrainMethod.HYBRID)
    gap2 = {parameter: [f for f in s2 if f.gap == 2][:2] for parameter, (_, s2) in frames.items()}
    fits = [
        fit_of(s1[:n1], s2[:n2], seed, parameter)
        for seed, parameter, n1, n2 in [
            (0, LabParameter.WBC, 40, 20), (1, LabParameter.GLUCOSE_AC, 25, 20),
            (2, LabParameter.WBC, 9, 3), (3, LabParameter.GLUCOSE_AC, 60, 7),
            (4, LabParameter.GLUCOSE_AC, 14, 0),
        ]
        for s1, s2 in [frames[parameter]]
    ]
    # equal seeds and sizes: these two meet at gap 2 at the same steps and roll
    # out in one stacked step, each recoded with its own parameter's thresholds
    fits += [fit_of(frames[parameter][0][:30], gap2[parameter], 5, parameter)
             for parameter in gap2]
    assert len({g for fit in fits for g in fit.stage2.gaps[fit.stage2.rows]}) > 2
    models = [_scaled_init(fit, fit.stage1, fit.stage2) for fit in fits]
    sources = [[fit.stage1, fit.stage2] for fit in fits]
    rngs = lambda: [rng_from(fit.seed, "fit") for fit in fits]  # noqa: E731
    rollout_parameters, step = [], nc.rollout_loss_and_grads

    def recorded_step(model, x0, targets, gap):
        if gap:
            parameter = model.parameter
            rollout_parameters.append(set(parameter if isinstance(parameter, tuple) else [parameter]))
        return step(model, x0, targets, gap)

    monkeypatch.setattr(nc, "rollout_loss_and_grads", recorded_step)
    stacked, histories = _lockstep(models, sources, rngs(), config)
    assert {LabParameter.WBC, LabParameter.GLUCOSE_AC} in rollout_parameters
    assert len({len(h) for h in histories}) > 2
    monkeypatch.setattr(pipeline, "_MAX_STACK", 3)  # 7 fits: gap-0 groups split
    chunked, chunked_histories = _lockstep(models, sources, rngs(), config)
    for m, rng in enumerate(rngs()):
        [solo], [history] = _lockstep([models[m]], [sources[m]], [rng], config)
        assert np.array_equal(stacked[m].vector, solo.vector)
        assert np.array_equal(chunked[m].vector, solo.vector)
        assert history == histories[m] == chunked_histories[m]
    two_stage = dataclasses.replace(config, method=TrainMethod.TWO_STAGE)
    together = train_by_method(fits[:4], two_stage)
    for fit, (intermediate, final) in zip(fits, together):
        [(alone_intermediate, alone_final)] = train_by_method([fit], two_stage)
        assert np.array_equal(intermediate.vector, alone_intermediate.vector)
        assert np.array_equal(final.vector, alone_final.vector)


def test_frame_set_select_matches_assembled_frames(small_cohort):
    """Sets stacked at threshold 0 give, for any patients and threshold, the
    frames assemble_frames keeps, in its order."""
    cache = build_frame_cache(small_cohort, LabParameter.WBC, InterpMethod.LINEAR)
    stage1, stage2 = assemble_frames(cache, small_cohort, certain=0)
    assert len(stage1) == len(frame_lists(cache)[0])
    members = small_cohort[::-2]
    for certain in range(6):
        # the threshold filters first-stage frames only, as in assemble_frames
        picks = stage1.select(members, certain), stage2.select(members)
        for picked, kept in zip(picks, assemble_frames(cache, members, certain)):
            assert np.array_equal(kept.rows, np.arange(len(kept)))
            assert np.array_equal(picked.x[picked.rows], kept.x)
            assert np.array_equal(picked.targets[picked.rows], kept.targets)
            assert np.array_equal(picked.gaps[picked.rows], kept.gaps)
            assert np.array_equal(picked.real_counts[picked.rows], kept.real_counts)
    assert len(stage1.select(certain=5)) < len(stage1.select()) == len(stage1)


def _live_frames() -> int:
    gc.collect()
    return sum(isinstance(obj, Frame) for obj in gc.get_objects())


def test_no_frame_outlives_framing(small_cohort, monkeypatch):
    """Once training starts, the frame caches and their `Frame`s are gone:
    only the stacked sets remain, so no held-out or training cache is held
    through cross-validation."""
    before = _live_frames()
    alive = []
    in_stacks = pipeline._in_stacks

    def counting(fn, fits, jobs):
        alive.append(_live_frames() - before)
        return in_stacks(fn, fits, jobs)

    monkeypatch.setattr(pipeline, "_in_stacks", counting)
    config = TrainConfig(epochs=1, seed=3, folds=2, parameters=(LabParameter.WBC, LabParameter.UA))
    cross_validate(small_cohort, config)
    assert alive == [0]


def test_train_final_models_respects_chosen(small_cohort, monkeypatch):
    config = TrainConfig(epochs=2, seed=8, folds=2, parameters=(LabParameter.WBC, LabParameter.UA))
    chosen = {LabParameter.WBC: 2, LabParameter.UA: 0}
    picks = iter(chosen.values())  # the sweep chooses per parameter, in config order
    monkeypatch.setattr(pipeline, "argmax_certain", lambda means: next(picks))
    report = sweep_certain(small_cohort, config)
    models = train_final_models(report)
    train, _ = split_cohort(small_cohort, config.split_ratio, config.seed)
    for parameter, certain in chosen.items():
        assert report.parameters[parameter.value].chosen_certain == certain
        assert models[parameter].parameter is parameter
        assert models[parameter].certain == certain
        # trained on exactly the training split's frames at the chosen threshold
        cache = build_frame_cache(train, parameter, config.interp)
        alone = Fit(parameter, certain, derive_seed(config.seed, parameter.value, "final"),
                    *assemble_frames(cache, train, certain))
        [(_, final)] = train_by_method([alone], config)
        assert np.array_equal(models[parameter].vector, final.vector)


def test_final_models_of_a_fixed_threshold_train_in_the_cv_stack(small_cohort, monkeypatch):
    """The final models of one threshold train beside the fold fits, and each
    equals its "final" fit trained alone bit for bit. A sweep's final models
    train after its cross-validation, inside `sweep_certain`; returning a
    report's models trains nothing more."""
    config = TrainConfig(epochs=2, seed=8, folds=2, certain=1,
                         parameters=(LabParameter.WBC, LabParameter.UA))
    stacks, lockstep = [], pipeline._lockstep

    def recorded(models, *args):
        stacks.append(len(models))
        return lockstep(models, *args)

    monkeypatch.setattr(pipeline, "_lockstep", recorded)
    report = cross_validate(small_cohort, config)
    # 2 parameters x 2 folds and 1 final model per parameter, per stage
    assert stacks == [6, 6]
    models = train_final_models(report)
    assert stacks == [6, 6]
    swept = sweep_certain(small_cohort, config)
    # 2 parameters x 6 thresholds x 2 folds, then 1 final model per parameter, per stage
    assert stacks[2:] == [24, 24, 2, 2]
    train_final_models(swept)
    assert stacks[2:] == [24, 24, 2, 2]
    monkeypatch.undo()
    train, _ = split_cohort(small_cohort, config.split_ratio, config.seed)
    for parameter in config.parameters:
        cache = build_frame_cache(train, parameter, config.interp)
        alone = Fit(parameter, 1, derive_seed(config.seed, parameter.value, "final"),
                    *assemble_frames(cache, train, 1))
        [(_, final)] = train_by_method([alone], config)
        assert models[parameter].parameter is parameter and models[parameter].certain == 1
        assert np.array_equal(models[parameter].vector, final.vector)


def test_stacked_scoring_matches_solo_scoring(small_cohort):
    """One stacked rollout per gap scores every model with the R^2 of its
    solo rollout, 1-row gap buckets included."""
    _, stage2 = assemble_frames(
        build_frame_cache(small_cohort, LabParameter.WBC, InterpMethod.LINEAR), small_cohort, 0)
    # drop one frame of a 2-frame gap bucket, which leaves it one row
    values, counts = np.unique(stage2.gaps, return_counts=True)
    drop = np.flatnonzero(stage2.gaps == values[counts == 2][0])[0]
    data = dataclasses.replace(stage2, rows=np.delete(stage2.rows, drop))
    models = [nc.init_model(LabParameter.WBC, 0, seed) for seed in range(5)]
    x, gaps = data.x[data.rows], data.gaps[data.rows]
    assert 1 in np.unique(gaps, return_counts=True)[1]
    for model, score in zip(models, evaluate_r2(models, data), strict=True):
        predictions = np.empty(len(data))
        for gap in np.unique(gaps):
            predictions[gaps == gap] = nc.rollout_forward(model, x[gaps == gap], int(gap))[0]
        assert score == r_squared(predictions, data.targets[data.rows])
