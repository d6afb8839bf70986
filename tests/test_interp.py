import numpy as np
import pytest

from glp.cohort import LabParameter, LabSeries, Observation
from glp.errors import ConfigError
from glp.interp import (
    InterpMethod,
    barycentric_at,
    barycentric_fill,
    interpolate_series,
    linear_at,
    pchip_fill,
    pchip_slopes,
)


def test_linear_at_examples():
    assert linear_at(0, 0, 2, 2, 1) == pytest.approx(1.0)
    assert linear_at(0, 5, 10, 5, 7) == pytest.approx(5.0)
    assert linear_at(0, 1, 4, 9, 3) == pytest.approx(7.0)


def test_linear_at_degenerate():
    with pytest.raises(ConfigError):
        linear_at(2, 1, 2, 5, 2)


def test_pchip_slope_zero_on_sign_change():
    # secants +1 then -1 around the middle knot
    assert pchip_slopes([0, 2, 4], [0, 2, 0])[1] == 0.0
    # a zero secant also forces 0
    assert pchip_slopes([0, 2, 4], [1, 1, 3])[1] == 0.0


def test_pchip_slope_weighted_harmonic_mean():
    # left secant 1 over width 1, right secant 3 over width 2:
    # w1 = 2*2+1 = 5, w2 = 2+2*1 = 4, slope = 9 / (5/1 + 4/3) = 27/19
    slopes = pchip_slopes([0, 1, 3], [0, 1, 7])
    assert slopes[1] == pytest.approx(27.0 / 19.0, rel=1e-12)


def test_pchip_reproduces_linear_data():
    filled = pchip_fill([(0, 0.0), (2, 2.0), (4, 4.0)])
    assert filled[1] == pytest.approx(1.0, abs=1e-12)
    for month in range(5):
        assert filled[month] == pytest.approx(float(month), abs=1e-12)


def test_pchip_no_overshoot_on_monotone_data():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(3, 9)
        xs = np.cumsum(rng.integers(1, 5, n))
        ys = np.cumsum(rng.uniform(0, 3, n)) + 1.0
        points = list(zip(xs.tolist(), ys.tolist()))
        filled = pchip_fill(points)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            for month in range(int(x0), int(x1) + 1):
                assert y0 - 1e-10 <= filled[month] <= y1 + 1e-10


def test_pchip_local_extremum_at_sign_change_knot():
    filled = pchip_fill([(0, 0.0), (10, 10.0), (20, 0.0)])
    assert max(filled.values()) == pytest.approx(10.0, abs=1e-12)


def test_barycentric_constant():
    filled = barycentric_fill([(0, 3.0), (3, 3.0), (7, 3.0)])
    assert all(v == pytest.approx(3.0, abs=1e-12) for v in filled.values())


def test_barycentric_quadratic_example():
    points = [(0, 0.0), (1, 1.0), (2, 4.0)]  # y = x^2
    assert barycentric_at(points, 1.5) == pytest.approx(2.25, rel=1e-12)


def test_barycentric_two_nodes_equals_linear():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0, x1 = sorted(rng.choice(30, size=2, replace=False).tolist())
        y0, y1 = rng.uniform(1, 10, 2)
        points = [(float(x0), float(y0)), (float(x1), float(y1))]
        for x in np.linspace(x0, x1, 7):
            assert barycentric_at(points, float(x)) == pytest.approx(
                linear_at(x0, y0, x1, y1, float(x)), rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize("n_nodes", [3, 5, 8, 10])
def test_barycentric_polynomial_reproduction(n_nodes):
    rng = np.random.default_rng(n_nodes)
    xs = np.sort(rng.choice(np.arange(0, 3 * n_nodes), size=n_nodes, replace=False))
    coeffs = rng.uniform(-1, 1, n_nodes)  # degree n-1

    def poly(x):
        return float(np.polyval(coeffs, (x - xs.mean()) / 10.0))

    points = [(float(x), poly(x)) for x in xs]
    filled = barycentric_fill(points)
    for month, estimate in filled.items():
        assert estimate == pytest.approx(poly(month), rel=1e-8, abs=1e-10)


def test_barycentric_many_nodes_uses_local_windows():
    # past 30 knots a global polynomial would blow up; the windowed evaluation
    # must stay near the sampled smooth function
    xs = np.arange(0, 105, 3)  # 35 knots
    f = lambda x: 100.0 + 10.0 * np.sin(x / 9.0)
    points = [(int(x), float(f(x))) for x in xs]
    filled = barycentric_fill(points)
    values = np.array([filled[m] for m in range(0, 103)])
    assert np.all(np.isfinite(values))
    assert values.max() < 130.0 and values.min() > 70.0
    for month in range(0, 103):
        assert abs(filled[month] - f(month)) < 2.0
    # point evaluation agrees with the fill on the same months
    assert barycentric_at(points, 50.0) == filled[50]


def _series(months, values=None):
    values = values if values is not None else [100.0 + m for m in months]
    obs = [Observation(m, v) for m, v in zip(months, values)]
    return LabSeries("P1", LabParameter.GLUCOSE_AC, obs)


def test_interpolate_series_fills_to_second_last():
    series = _series([0, 3, 6])
    out = interpolate_series(series, InterpMethod.LINEAR)
    assert out.first == 0
    assert out.is_real.tolist() == [True, False, False, True]
    assert out.values[1] == pytest.approx(101.0)
    assert out.last == series.observations[-1]


def test_interpolate_dense_series_unchanged():
    series = _series([0, 1, 2, 3, 4])
    out = interpolate_series(series, InterpMethod.PCHIP)
    assert out.values.tolist() == [o.value for o in series.observations[:-1]]
    assert out.is_real.all()
    assert out.last == series.observations[-1]


def test_interpolate_two_observations_unchanged():
    series = _series([0, 9])
    for method in InterpMethod:
        out = interpolate_series(series, method)
        assert (out.first, out.values.tolist(), out.is_real.tolist()) == (0, [100.0], [True])
        assert out.last is series.observations[-1]


def _random_months_and_values(rng):
    n = int(rng.integers(3, 10))
    months = np.unique(rng.integers(0, 40, n)).tolist()
    return months, rng.uniform(50, 150, len(months)).tolist()


@pytest.mark.parametrize("method", list(InterpMethod))
def test_interpolate_never_touches_real_values(method):
    rng = np.random.default_rng(5)
    for _ in range(30):
        months, values = _random_months_and_values(rng)
        if len(months) < 3:
            continue
        out = interpolate_series(_series(months, values), method)
        # dense coverage from the first to the second-to-last real month
        assert (out.first, len(out.values)) == (months[0], months[-2] - months[0] + 1)
        offsets = np.array(months[:-1]) - months[0]
        assert np.flatnonzero(out.is_real).tolist() == offsets.tolist()
        assert out.values[offsets].tolist() == values[:-1]
        assert (out.last.month, out.last.value) == (months[-1], values[-1])


def _public_fill(method, points):
    if method is InterpMethod.LINEAR:
        return {t: linear_at(*a, *b, t)
                for a, b in zip(points, points[1:]) for t in range(int(a[0]), int(b[0]))}
    return (pchip_fill if method is InterpMethod.PCHIP else barycentric_fill)(points)


@pytest.mark.parametrize("method", list(InterpMethod))
def test_series_values_equal_the_public_fills_bit_for_bit(method):
    """Every filled month equals what the public fill gives for it (`linear_at`
    per segment, `pchip_fill`, `barycentric_fill`), observed months keep their
    values, and the last observation is left as it was."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        months, values = _random_months_and_values(rng)
        if len(months) < 3:
            continue
        series = _series(months, values)
        out = interpolate_series(series, method)
        points = [(float(t), y) for t, y in zip(months[:-1], values[:-1])]
        expected = {**_public_fill(method, points), **dict(zip(months[:-1], values[:-1]))}
        assert dict(zip(range(out.first, out.first + len(out.values)), out.values.tolist())) == expected
        assert out.last is series.observations[-1]
        checked += 1
    assert checked > 40
