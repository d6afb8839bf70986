import tracemalloc

import numpy as np
import pytest

from glp import netcore as nc
from glp.cohort import LabParameter
from glp.errors import IntegrityError, TrainingError
from helpers import gradient_check, make_glucose_batch, views_alias_vector


def zero_model(parameter=LabParameter.GLUCOSE_AC):
    return nc.vector_to_model(np.zeros(nc.n_parameters()), parameter, 0)


def random_model(seed, parameter=LabParameter.GLUCOSE_AC):
    rng = np.random.default_rng(seed)
    return nc.vector_to_model(rng.uniform(-0.5, 0.5, nc.n_parameters()), parameter, 0)


def test_parameter_count_is_fixed():
    assert nc.n_parameters() == 516


def test_views_alias_the_vector():
    model = random_model(9)
    model.libc.w_x[1, 3, 2] = 7.5
    assert 7.5 in model.vector
    model.vector[-1] = -3.25
    assert model.regressor.b3[0] == -3.25
    assert views_alias_vector(model)


def test_init_model_views_alias_the_vector():
    model = nc.init_model(LabParameter.LDL, 2, seed=4)
    assert model.vector.shape == (516,)
    assert views_alias_vector(model)


def test_libc_output_shape():
    model = random_model(1)
    x, _ = make_glucose_batch(3, np.random.default_rng(0))
    out, _ = nc.libc_forward(model.libc, x)
    assert out.shape == (3, 12, 5)
    assert np.all(out >= 0.0)


def test_zero_weights_zero_output():
    model = zero_model()
    x, _ = make_glucose_batch(2, np.random.default_rng(0))
    out, _ = nc.libc_forward(model.libc, x)
    assert np.all(out == 0.0)
    for gap in (0, 1, 4):
        pred, _, _, _ = nc.rollout_forward(model, x, gap)
        assert np.all(pred == 0.0)


def test_forward_determinism_bitwise():
    model = random_model(7)
    x, _ = make_glucose_batch(4, np.random.default_rng(3))
    out1, _ = nc.libc_forward(model.libc, x)
    out2, _ = nc.libc_forward(model.libc, x)
    assert out1.tobytes() == out2.tobytes()


def test_direction_symmetry():
    model = random_model(11)
    swapped = random_model(11)
    for array in (swapped.libc.w_x, swapped.libc.w_h, swapped.libc.b):
        array[:] = array[::-1]
    x, _ = make_glucose_batch(2, np.random.default_rng(5))
    _, tr = nc.libc_forward(model.libc, x, need_trace=True)
    _, tr_swapped = nc.libc_forward(swapped.libc, x[:, ::-1, :], need_trace=True)
    # reversing input and swapping direction weights reverses and swaps the
    # pre-condense hidden halves
    np.testing.assert_allclose(tr_swapped.concat[:, ::-1, :5], tr.concat[:, :, 5:], atol=1e-12)
    np.testing.assert_allclose(tr_swapped.concat[:, ::-1, 5:], tr.concat[:, :, :5], atol=1e-12)


def test_relu_trace_nonnegative():
    model = random_model(2)
    x, _ = make_glucose_batch(2, np.random.default_rng(2))
    at = tuple(np.full(2, k) for k in (1, 2, 3))
    pred, latents, traces, rtr = nc.rollout_forward(model, x, 3, need_trace=True, at=at)
    for tr in traces:
        assert np.all(np.maximum(tr.pre, 0.0) >= 0.0)
    assert np.all(rtr.a1 >= 0.0) and np.all(rtr.a2 >= 0.0)
    assert all(np.all(latent >= 0.0) for latent in latents)


def test_regressor_hand_computed():
    model = zero_model()
    reg = model.regressor
    reg.w1[:] = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    reg.b1[:] = [0.0, 0.0]
    reg.w2[:] = [[1, 1], [0, 1]]
    reg.b2[:] = [0.5, 0.0]
    reg.w3[:] = [[2.0, -1.0]]
    reg.b3[:] = [0.25]
    latent = np.array([[0.3, 0.2, 9.0, 9.0, 9.0]])
    # z1 = [0.3, 0.2]; z2 = [1.0, 0.2]; y = 2*1.0 - 0.2 + 0.25
    pred, _ = nc.regressor_forward(reg, latent)
    assert pred[0] == pytest.approx(2.05, abs=1e-12)


def test_regressor_output_scalar():
    model = random_model(3)
    pred, _ = nc.regressor_forward(model.regressor, np.random.default_rng(0).uniform(0, 1, (6, 5)))
    assert pred.shape == (6,)


@pytest.mark.parametrize("gap", [0, 3])
def test_stacked_models_match_single_models(gap):
    singles = [random_model(seed) for seed in (20, 21, 22)]
    stacked = nc.GlpModel(LabParameter.GLUCOSE_AC, 0, np.stack([m.vector for m in singles]))
    assert views_alias_vector(stacked)
    x, _ = make_glucose_batch(4, np.random.default_rng(gap))
    at = tuple(np.full(4, k) for k in range(1, max(gap, 1) + 1))
    pred, latents, _, _ = nc.rollout_forward(stacked, x, gap, at=at)
    assert pred.shape == (3, 4) and len(latents) == max(gap, 1)
    for m, single in enumerate(singles):
        pred_m, latents_m, _, _ = nc.rollout_forward(single, x, gap, at=at)
        np.testing.assert_allclose(pred[m], pred_m, rtol=0, atol=1e-12)
        for latent, latent_m in zip(latents, latents_m):
            np.testing.assert_allclose(latent[m], latent_m, rtol=0, atol=1e-12)


def test_rollout_snapshots_each_row_at_its_own_application():
    singles = [random_model(seed) for seed in (30, 31)]
    stacked = nc.GlpModel(LabParameter.GLUCOSE_AC, 0, np.stack([m.vector for m in singles]))
    x, _ = make_glucose_batch(9, np.random.default_rng(4))
    apps = np.random.default_rng(5).integers(1, 7, size=(2, 9))
    apps[1, 0] = 6
    every = tuple(np.full(9, k) for k in range(1, 7))
    for model in (singles[0], stacked):
        _, latents, _, _ = nc.rollout_forward(model, x, 6, at=every)
        pred, snaps, _, _ = nc.rollout_forward(model, x, 6, at=tuple(apps))
        assert len(snaps) == 2
        for snap, row_apps in zip(snaps, apps):
            for b, k in enumerate(row_apps):
                assert np.array_equal(snap[..., b, :], latents[k - 1][..., b, :])
        assert np.array_equal(pred, nc.regressor_forward(model.regressor, snaps[-1])[0])
        _, listed, _, _ = nc.rollout_forward(model, x, 6, at=tuple(row.tolist() for row in apps))
        assert all(np.array_equal(a, b) for a, b in zip(listed, snaps))
    for bad in (np.full(9, 0), np.full(9, 7), np.full(8, 1)):  # out of range, wrong length
        with pytest.raises(TrainingError):
            nc.rollout_forward(singles[0], x, 6, at=(bad,))
    with pytest.raises(TrainingError):  # gap 0 still runs one application
        nc.rollout_forward(singles[0], x, 0, at=(np.full(9, 2),))


def test_rollout_snapshot_memory_does_not_grow_with_gap():
    model = random_model(6)
    x, _ = make_glucose_batch(64, np.random.default_rng(6))
    peaks = []
    for gap in (20, 400):
        tracemalloc.start()
        nc.rollout_forward(model, x, gap, at=(np.full(64, gap),))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_nonfinite_input_rejected():
    model = random_model(4)
    x, _ = make_glucose_batch(1, np.random.default_rng(1))
    x[0, 0, 4] = np.inf
    with pytest.raises(TrainingError):
        nc.libc_forward(model.libc, x)


@pytest.mark.parametrize("gap", [0, 3, 6])
def test_gradients_match_finite_differences(gap):
    worst = max(gradient_check(seed, gap) for seed in range(3))
    assert worst < 1e-4


def test_zero_loss_zero_gradients():
    model = random_model(6)
    x, _ = make_glucose_batch(2, np.random.default_rng(6))
    pred, _, _, _ = nc.rollout_forward(model, x, 2)
    loss, grads = nc.rollout_loss_and_grads(model, x, pred, 2)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_duplicated_batch_same_mean_gradient():
    model = random_model(8)
    x, targets = make_glucose_batch(3, np.random.default_rng(8))
    loss1, g1 = nc.rollout_loss_and_grads(model, x, targets, 1)
    x2 = np.concatenate([x, x])
    t2 = np.concatenate([targets, targets])
    loss2, g2 = nc.rollout_loss_and_grads(model, x2, t2, 1)
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    np.testing.assert_allclose(g2, g1, rtol=1e-9, atol=1e-12)


def test_adam_zero_gradients_no_move():
    params = np.random.default_rng(0).uniform(-1, 1, 516)
    state = nc.AdamState.create(516)
    new_params, new_state = nc.adam_step(params, np.zeros(516), state)
    assert np.array_equal(new_params, params)
    assert new_state.step == 1


def test_adam_constant_gradient_approaches_signed_rate():
    params = np.zeros(4)
    grads = np.array([0.5, -2.0, 1e-3, 3.0])
    state = nc.AdamState.create(4, learning_rate=1e-3)
    for _ in range(600):
        params, state = nc.adam_step(params, grads, state)
    # fixed point of bias-corrected Adam under constant gradient: lr * sign(g)
    final_step = state.learning_rate * grads / (np.sqrt(grads**2) + nc.ADAM_EPSILON)
    previous, state = nc.adam_step(params, grads, state)
    np.testing.assert_allclose(params - previous, final_step, rtol=1e-6)


def test_adam_deterministic():
    params = np.random.default_rng(1).uniform(-1, 1, 10)
    grads = np.random.default_rng(2).uniform(-1, 1, 10)
    a1, s1 = nc.adam_step(params, grads, nc.AdamState.create(10))
    a2, s2 = nc.adam_step(params, grads, nc.AdamState.create(10))
    assert np.array_equal(a1, a2)
    assert s1.step == s2.step and np.array_equal(s1.m, s2.m)


def test_weight_file_round_trip(tmp_path):
    model = random_model(12, LabParameter.UA)
    model.certain = 4
    path = tmp_path / "ua.glp"
    nc.save_weights(model, path)
    loaded = nc.load_weights(path)
    assert (loaded.parameter, loaded.certain, loaded.version) == (model.parameter, 4, 1)
    assert np.array_equal(model.vector, loaded.vector)
    assert nc.model_checksum(model) == nc.model_checksum(loaded)


def test_weight_file_corruption_detected(tmp_path):
    model = random_model(13)
    path = tmp_path / "m.glp"
    nc.save_weights(model, path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        nc.load_weights(path)


def test_weight_file_truncation_detected(tmp_path):
    model = random_model(14)
    path = tmp_path / "m.glp"
    nc.save_weights(model, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(IntegrityError, match="truncated"):
        nc.load_weights(path)


def test_weight_file_bad_magic_and_version(tmp_path):
    model = random_model(15)
    path = tmp_path / "m.glp"
    nc.save_weights(model, path)
    blob = bytearray(path.read_bytes())

    import struct
    import zlib

    bad = b"GLPX" + bytes(blob[4:-4])
    path.write_bytes(bad + struct.pack("<I", zlib.crc32(bad)))
    with pytest.raises(IntegrityError, match="magic"):
        nc.load_weights(path)

    bad = bytes(blob[:4]) + struct.pack("<H", 9) + bytes(blob[6:-4])
    path.write_bytes(bad + struct.pack("<I", zlib.crc32(bad)))
    with pytest.raises(IntegrityError, match="version"):
        nc.load_weights(path)


def test_save_load_deterministic_bytes(tmp_path):
    model = random_model(16)
    p1, p2 = tmp_path / "a.glp", tmp_path / "b.glp"
    nc.save_weights(model, p1)
    nc.save_weights(model, p2)
    assert p1.read_bytes() == p2.read_bytes()
