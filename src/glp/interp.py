"""Interpolation of missing integer months inside a lab series.

Three methods fill the months between the first observation and the
second-to-last observation:

* linear: straight line through the two straddling observations;
* pchip: shape-preserving cubic Hermite. The slope at an interior knot is 0
  when the neighbouring secant slopes differ in sign or either is zero, and
  otherwise the weighted harmonic mean of the two secants with weights
  w1 = 2*h_right + h_left, w2 = h_right + 2*h_left. Boundary knots get the
  adjacent secant slope, which keeps linear data exactly linear and cannot
  overshoot.
* barycentric: polynomial interpolation through all knots in barycentric
  form with weights w_i = 1 / prod_{k != i} (x_i - x_k). Above 30 knots each
  month is evaluated against its 12 nearest knots instead, which keeps the
  method usable where a global polynomial would oscillate wildly.

`interpolate_series` returns a `FilledSeries`: the months from the first to
the second-to-last observation as two arrays, `values` and `is_real` (the
observed months keep their values exactly), and the final observation `last`,
which is never touched and never interpolated toward.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import LabParameter, LabSeries, Observation
from .errors import ConfigError

_GLOBAL_NODE_LIMIT = 30
_LOCAL_WINDOW = 12


class InterpMethod(Enum):
    LINEAR = "linear"
    PCHIP = "pchip"
    BARYCENTRIC = "barycentric"


def linear_at(t_i: float, y_i: float, t_k: float, y_k: float, t_j: float) -> float:
    """Estimate at t_j on the line through (t_i, y_i) and (t_k, y_k), t_i < t_j < t_k."""
    if t_k == t_i:
        raise ConfigError("degenerate interval: t_k == t_i")
    return y_i + (t_j - t_i) * (y_k - y_i) / (t_k - t_i)


def _check_points(points: list[tuple[float, float]]) -> None:
    if len(points) < 2:
        raise ConfigError("need at least 2 points")
    xs = [p[0] for p in points]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigError("months must be strictly increasing")


def pchip_slopes(xs: list[float], ys: list[float]) -> list[float]:
    """Knot derivatives for the shape-preserving cubic.

    Interior knots: 0 when the two neighbouring secants disagree in sign or
    either is zero, else their weighted harmonic mean; boundary knots take
    the adjacent secant.
    """
    n = len(xs)
    secants = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1)]
    slopes = [0.0] * n
    slopes[0] = secants[0]
    slopes[-1] = secants[-1]
    for j in range(1, n - 1):
        d_left = secants[j - 1]
        d_right = secants[j]
        if d_left == 0.0 or d_right == 0.0 or (d_left > 0) != (d_right > 0):
            slopes[j] = 0.0
        else:
            h_left = xs[j] - xs[j - 1]
            h_right = xs[j + 1] - xs[j]
            w1 = 2.0 * h_right + h_left
            w2 = h_right + 2.0 * h_left
            slopes[j] = (w1 + w2) / (w1 / d_left + w2 / d_right)
    return slopes


def _hermite(x0, y0, m0, x1, y1, m1, x):
    h = x1 - x0
    t = (x - x0) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * m0 + h01 * y1 + h11 * h * m1


def pchip_fill(points: list[tuple[float, float]]) -> dict[int, float]:
    """Estimates at every integer month in [first, last]; knot months exact."""
    _check_points(points)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    slopes = pchip_slopes(xs, ys)
    knots = {int(x): y for x, y in points if float(x).is_integer()}
    out = {}
    seg = 0
    for month in range(int(xs[0]), int(xs[-1]) + 1):
        if month in knots:
            out[month] = knots[month]
            continue
        while seg < len(xs) - 2 and month >= xs[seg + 1]:
            seg += 1
        out[month] = _hermite(
            xs[seg], ys[seg], slopes[seg], xs[seg + 1], ys[seg + 1], slopes[seg + 1], month
        )
    return out


def _barycentric_weights(xs: list[float]) -> list[float]:
    weights = []
    for i, xi in enumerate(xs):
        w = 1.0
        for k, xk in enumerate(xs):
            if k != i:
                w /= xi - xk
        weights.append(w)
    return weights


def _barycentric_eval(xs, ys, weights, x):
    num = 0.0
    den = 0.0
    for xi, yi, wi in zip(xs, ys, weights):
        if x == xi:
            return yi
        factor = wi / (x - xi)
        num += factor * yi
        den += factor
    return num / den


def barycentric_at(points: list[tuple[float, float]], x: float) -> float:
    """Single barycentric estimate at x (knots return their exact value).

    Past 30 knots the evaluation switches to the 12 knots nearest to x
    (earlier knot wins distance ties) instead of the full polynomial.
    """
    _check_points(points)
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    if len(points) > _GLOBAL_NODE_LIMIT:
        nearest = sorted(range(len(xs)), key=lambda i: (abs(xs[i] - x), xs[i]))
        chosen = sorted(nearest[:_LOCAL_WINDOW])
        xs = [xs[i] for i in chosen]
        ys = [ys[i] for i in chosen]
    return _barycentric_eval(xs, ys, _barycentric_weights(xs), float(x))


def barycentric_fill(points: list[tuple[float, float]]) -> dict[int, float]:
    """Estimates at every integer month in [first, last]; knot months exact."""
    _check_points(points)
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    out = {}
    if len(points) <= _GLOBAL_NODE_LIMIT:
        weights = _barycentric_weights(xs)
        for month in range(int(xs[0]), int(xs[-1]) + 1):
            out[month] = _barycentric_eval(xs, ys, weights, float(month))
        return out
    for month in range(int(xs[0]), int(xs[-1]) + 1):
        out[month] = barycentric_at(points, float(month))
    return out


@dataclass(slots=True)
class FilledSeries:
    """A series filled month by month: `values[k]` and `is_real[k]` belong to
    month `first + k`, up to the second-to-last observation's month; `last` is
    the final observation."""

    patient_id: str
    parameter: LabParameter
    first: int
    values: np.ndarray  # float64
    is_real: np.ndarray  # bool
    last: Observation


def interpolate_series(series: LabSeries, method: InterpMethod) -> FilledSeries:
    """Fill every integer month between the first and the second-to-last
    observation; the last observation passes through untouched."""
    *knots, last = series.observations
    real = {o.month: o.value for o in knots}
    points = [(float(month), value) for month, value in real.items()]
    months = range(knots[0].month, knots[-1].month + 1)
    if len(knots) < 2:
        filled = real
    elif method is InterpMethod.LINEAR:
        filled = {}
        seg = 0
        for month in months:
            while seg < len(points) - 2 and month >= points[seg + 1][0]:
                seg += 1
            filled[month] = linear_at(*points[seg], *points[seg + 1], month)
    elif method is InterpMethod.PCHIP:
        filled = pchip_fill(points)
    else:
        filled = barycentric_fill(points)
    return FilledSeries(
        series.patient_id,
        series.parameter,
        months.start,
        np.array([real.get(month, filled[month]) for month in months]),
        np.array([month in real for month in months]),
        last,
    )
