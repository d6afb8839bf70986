"""Differential tests against scipy, an independent implementation of the
same statistics and interpolant. Skipped where scipy is not installed."""

import numpy as np
import pytest

from glp.interp import barycentric_fill
from glp.stats import t_ppf975, t_test

scipy_stats = pytest.importorskip("scipy.stats")
scipy_interpolate = pytest.importorskip("scipy.interpolate")

REL = 1e-8


def test_t_test_matches_scipy_pooled():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), rng.integers(2, 12))
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), rng.integers(2, 12))
        ours = t_test(a, b)
        theirs = scipy_stats.ttest_ind(a, b, equal_var=True)
        assert ours.df == len(a) + len(b) - 2
        assert ours.t == pytest.approx(theirs.statistic, rel=REL)
        assert ours.p == pytest.approx(theirs.pvalue, rel=REL)


def test_t_ppf975_matches_scipy():
    for df in range(1, 201):
        assert t_ppf975(df) == pytest.approx(scipy_stats.t.ppf(0.975, df), rel=REL)


def test_barycentric_fill_matches_scipy():
    """Fills through 3-12 knots at increasing visit months, compared on the
    scale of the data."""
    rng = np.random.default_rng(1)
    for n_knots in range(3, 13):
        for _ in range(20):
            months = np.cumsum(rng.integers(1, 5, n_knots)) - 1
            values = rng.uniform(0.5, 150.0, n_knots)
            fill = barycentric_fill(list(zip(months.tolist(), values.tolist())))
            grid = np.arange(months[0], months[-1] + 1)
            assert sorted(fill) == grid.tolist()
            reference = scipy_interpolate.BarycentricInterpolator(months, values)(grid)
            ours = np.array([fill[month] for month in grid.tolist()])
            assert np.max(np.abs(ours - reference)) <= REL * np.max(np.abs(values))
