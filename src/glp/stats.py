"""Shared statistical primitives.

Self-contained: p-values come from the Student-t CDF evaluated through the
regularized incomplete beta function (continued fraction, Lentz's method),
accurate to ~1e-10 for the degrees of freedom this package ever sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError

_P_FLOOR = 1e-300


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float


def r_squared(predictions, targets) -> float:
    """Coefficient of determination; negative when worse than the mean line."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise EvaluationError("r_squared: shape mismatch")
    if targets.size < 2:
        raise EvaluationError("r_squared needs >= 2 samples")
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0.0:
        raise EvaluationError("r_squared undefined: zero target variance")
    ss_res = float(np.sum((targets - predictions) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise EvaluationError("pearson needs two equal-length vectors of size >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise EvaluationError("pearson undefined: zero variance")
    return float(np.sum(dx * dy) / (sx * sy))


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta function (Lentz)
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if df <= 0:
        raise EvaluationError("t distribution needs df > 0")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return max(_incomplete_beta(df / 2.0, 0.5, x), _P_FLOOR)


def t_ppf975(df: float) -> float:
    """97.5th percentile of Student's t, by bisection on the CDF."""
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_sf_two_sided(mid, df) > 0.05:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_test(a, b) -> TTestResult:
    """Two-sample two-sided t-test with pooled variance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise EvaluationError("t_test needs >= 2 samples per group")
    na, nb = a.size, b.size
    mean_diff = float(a.mean() - b.mean())
    df = float(na + nb - 2)
    pooled = ((na - 1) * float(a.var(ddof=1)) + (nb - 1) * float(b.var(ddof=1))) / df
    scale = pooled * (1.0 / na + 1.0 / nb)
    if scale == 0.0:
        if mean_diff == 0.0:
            return TTestResult(0.0, df, 1.0)
        t = math.copysign(math.inf, mean_diff)
        return TTestResult(t, df, _P_FLOOR)
    t = mean_diff / math.sqrt(scale)
    return TTestResult(t, df, t_sf_two_sided(t, df))
