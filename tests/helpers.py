"""Shared test utilities: batch builders and the finite-difference gradient
oracle.

`fd_gradient` evaluates the training loss at every finite-difference probe
with the production forward: the (P, 516) probe matrix is the vector of one
`glp.netcore.GlpModel`, a stack of P models, which `glp.netcore.rollout_forward`
runs in one call. The acceptance suite checks this stacked forward pointwise
against single-model calls on sampled probes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from glp import netcore as nc
from glp.cohort import LabParameter
from glp.encoding import CODE_THRESHOLDS, discrete_codes

KINK_GUARD = 5e-4  # minimum distance of any trace quantity from a ReLU or
# discrete-code kink for a finite-difference probe to be trustworthy


def make_glucose_batch(batch: int, rng: np.random.Generator):
    """A random but realistically-scaled (B, 12, 5) frame batch plus targets."""
    x = np.empty((batch, 12, 5))
    x[:, :, 0] = np.log1p(rng.uniform(40, 80, (batch, 1)))
    x[:, :, 1] = rng.integers(0, 2, (batch, 1)).astype(float)
    x[:, :, 2] = rng.integers(0, 2, (batch, 12)).astype(float)
    values = rng.uniform(60, 140, (batch, 12))
    x[:, :, 3] = discrete_codes(LabParameter.GLUCOSE_AC, values)
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


def fd_gradient(vec, parameter, x, targets, gap, eps=1e-5):
    """Central finite differences of the batch-mean MSE at `vec`.

    Every +-eps probe is one row of a (2 * 516, 516) matrix, i.e. one model of
    a stack, and every probe's loss comes from one production
    `nc.rollout_forward` call. Returns (fd gradient, probes, probe losses);
    rows 2i and 2i + 1 of `probes` move parameter i up and down.
    """
    idx = np.arange(vec.size)
    probes = np.repeat(vec[None, :], 2 * vec.size, axis=0)
    probes[2 * idx, idx] += eps
    probes[2 * idx + 1, idx] -= eps
    pred, _, _, _ = nc.rollout_forward(nc.GlpModel(parameter, 0, probes), x, gap)
    losses = np.mean((pred - targets) ** 2, axis=-1)
    return (losses[0::2] - losses[1::2]) / (2 * eps), probes, losses


def min_kink_distance(model, x0: np.ndarray, gap: int) -> float:
    """Distance of the closest trace quantity to a ReLU or code-threshold kink."""
    _, _, traces, rtr = nc.rollout_forward(model, x0, gap, need_trace=True)
    thr_n = np.log1p(CODE_THRESHOLDS[model.parameter][0])
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
    fd, _, _ = fd_gradient(vec, parameter, x, targets, gap)
    return relative_errors(analytic, fd, loss).max()


def relative_errors(analytic: np.ndarray, fd: np.ndarray, loss: float) -> np.ndarray:
    """Per-parameter relative error with the denominator floored at the
    finite-difference noise scale (machine epsilon x loss / step, with margin),
    so roundoff in negligible gradients cannot masquerade as disagreement."""
    floor = max(1e-6, 2e-5 * max(1.0, abs(loss)))
    return np.abs(analytic - fd) / np.maximum(floor, np.abs(analytic) + np.abs(fd))
