"""Shared test utilities: batch builders and the probe-batched loss evaluator
that accelerates the finite-difference gradient oracle.

`batched_rollout_losses` evaluates the training loss at P parameter vectors
simultaneously by giving every weight array a leading probe axis: the named
arrays are `glp.netcore.param_views` of the (P, 516) probe matrix, so the
parameter layout is the production one. It computes the same math as
`glp.netcore.rollout_forward`; the acceptance suite verifies this pointwise
against the production forward on sampled probes before trusting it for the
full finite-difference sweep.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from glp import netcore as nc
from glp.cohort import LabParameter
from glp.encoding import discrete_codes

KINK_GUARD = 5e-4  # minimum distance of any trace quantity from a ReLU or
# discrete-code kink for a finite-difference probe to be trustworthy


def make_glucose_batch(batch: int, rng: np.random.Generator):
    """A random but realistically-scaled (B, 12, 5) frame batch plus targets."""
    x = np.empty((batch, 12, 5))
    x[:, :, 0] = np.log1p(rng.uniform(40, 80, (batch, 1)))
    x[:, :, 1] = rng.integers(0, 2, (batch, 1)).astype(float)
    x[:, :, 2] = rng.integers(0, 2, (batch, 12)).astype(float)
    values = rng.uniform(60, 140, (batch, 12))
    x[:, :, 3] = np.where(values <= 100, 0.0, np.where(values <= 125, 1.0, 2.0))
    x[:, :, 4] = np.log1p(values)
    targets = np.log1p(rng.uniform(60, 140, batch))
    return x, targets


def views_alias_vector(model) -> bool:
    """Whether every named weight array is a view into `model.vector`."""
    return all(
        np.shares_memory(getattr(group, f.name), model.vector)
        for group in (model.libc, model.regressor)
        for f in dataclasses.fields(group)
    )


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def batched_rollout_losses(
    vectors: np.ndarray,
    parameter: LabParameter,
    x0: np.ndarray,
    targets: np.ndarray,
    gap: int,
) -> np.ndarray:
    """Loss per probe row for P parameter vectors at once; shape (P,)."""
    libc, reg = nc.param_views(vectors)
    P = vectors.shape[0]
    B, T, _ = x0.shape
    applications = max(int(gap), 1)
    # stacked matmuls over the probe (and direction) axes; einsum is ~2x slower here
    w_x_t = np.ascontiguousarray(libc.w_x.transpose(0, 1, 3, 2))  # (P, 2, 5, 20)
    w_h_t = np.ascontiguousarray(libc.w_h.transpose(0, 1, 3, 2))  # (P, 2, 5, 20)

    seq = np.broadcast_to(x0, (P, B, T, 5))
    for k in range(applications):
        xs = np.stack([seq, seq[:, :, ::-1, :]], axis=1).reshape(P, 2, B * T, 5)
        xz = (xs @ w_x_t).reshape(P, 2, B, T, 20) + libc.b[:, :, None, None, :]
        h = np.zeros((P, 2, B, 5))
        c = np.zeros((P, 2, B, 5))
        hs = np.empty((P, 2, B, T, 5))
        for t in range(T):
            z = xz[:, :, :, t, :] + h @ w_h_t
            gi_gf = _sigmoid(z[..., 0:10])
            gi = gi_gf[..., 0:5]
            gf = gi_gf[..., 5:10]
            gg = np.tanh(z[..., 10:15])
            go = _sigmoid(z[..., 15:20])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            hs[:, :, :, t] = h
        concat = np.concatenate([hs[:, 0], hs[:, 1, :, ::-1, :]], axis=3)  # (P, B, T, 10)
        act = np.maximum(concat, 0.0)
        pre = (act.reshape(P, B * T, 10) @ libc.w_c.transpose(0, 2, 1)).reshape(P, B, T, 5)
        pre = pre + libc.b_c[:, None, None, :]
        out = np.maximum(pre, 0.0)
        if k < applications - 1:
            nxt = np.empty_like(out)
            nxt[:, :, :, 0] = x0[None, :, 0:1, 0]
            nxt[:, :, :, 1] = x0[None, :, 0:1, 1]
            nxt[:, :, :, 2] = 0.0
            nxt[:, :, :, 3] = discrete_codes(parameter, np.expm1(out[:, :, :, 4]))
            nxt[:, :, :, 4] = out[:, :, :, 4]
            seq = nxt

    latent = out[:, :, -1, :]  # (P, B, 5)
    z1 = latent @ reg.w1.transpose(0, 2, 1) + reg.b1[:, None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ reg.w2.transpose(0, 2, 1) + reg.b2[:, None, :]
    a2 = np.maximum(z2, 0.0)
    pred = (a2 @ reg.w3.transpose(0, 2, 1))[:, :, 0] + reg.b3
    diff = pred - targets[None, :]
    return np.mean(diff * diff, axis=1)


def min_kink_distance(model, x0: np.ndarray, gap: int) -> float:
    """Distance of the closest trace quantity to a ReLU or code-threshold kink."""
    _, _, traces, rtr = nc.rollout_forward(model, x0, gap, need_trace=True)
    thresholds = {
        LabParameter.CHOL_HDL: [5.0],
        LabParameter.LDL: [160.0],
        LabParameter.LDL_HDL: [3.5],
        LabParameter.GLUCOSE_AC: [100.0, 125.0],
        LabParameter.WBC: [4.0, 9.0],
        LabParameter.UA: [3.4, 7.0],
    }[model.parameter]
    thr_n = np.log1p(thresholds)
    dists = [np.abs(rtr.z1).min(), np.abs(rtr.z2).min()]
    for index, tr in enumerate(traces):
        dists.append(np.abs(tr.concat).min())
        dists.append(np.abs(tr.pre).min())
        if index < len(traces) - 1:
            values_n = np.maximum(tr.pre, 0.0)[:, :, 4]
            dists.append(np.abs(values_n[..., None] - thr_n[None, None, :]).min())
    return float(min(dists))


def gradient_check(seed: int, gap: int, parameter=LabParameter.GLUCOSE_AC, batch: int = 2):
    """One production-forward finite-difference check; returns max relative error.

    Seeds whose forward trace sits within KINK_GUARD of a ReLU or code kink
    are deterministically replaced (finite differences are meaningless across
    a kink); the replacement chain is part of the oracle definition.
    """
    attempt = seed
    for _ in range(20):
        rng = np.random.default_rng(attempt)
        vec = rng.uniform(-0.5, 0.5, nc.n_parameters())
        x, targets = make_glucose_batch(batch, rng)
        model = nc.vector_to_model(vec, parameter, 0)
        if min_kink_distance(model, x, gap) > KINK_GUARD:
            break
        attempt += 10_000
    loss, analytic = nc.rollout_loss_and_grads(model, x, targets, gap)
    eps = 1e-5
    fd = np.empty_like(analytic)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += eps
        down[i] -= eps
        pred_up, _, _, _ = nc.rollout_forward(nc.vector_to_model(up, parameter, 0), x, gap)
        pred_dn, _, _, _ = nc.rollout_forward(nc.vector_to_model(down, parameter, 0), x, gap)
        fd[i] = (np.mean((pred_up - targets) ** 2) - np.mean((pred_dn - targets) ** 2)) / (2 * eps)
    return relative_errors(analytic, fd, loss).max()


def relative_errors(analytic: np.ndarray, fd: np.ndarray, loss: float) -> np.ndarray:
    """Per-parameter relative error with the denominator floored at the
    finite-difference noise scale (machine epsilon x loss / step, with margin),
    so roundoff in negligible gradients cannot masquerade as disagreement."""
    floor = max(1e-6, 2e-5 * max(1.0, abs(loss)))
    return np.abs(analytic - fd) / np.maximum(floor, np.abs(analytic) + np.abs(fd))
