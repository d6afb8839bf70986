import math

import numpy as np
import pytest

from glp.errors import EvaluationError
from glp.stats import pearson, r_squared, t_ppf975, t_sf_two_sided, t_test


def test_pearson_perfect_lines():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_computed():
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


def test_pearson_zero_variance():
    with pytest.raises(EvaluationError):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_scale_invariance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    r = pearson(x, y)
    for alpha, beta in [(2.5, 1.0), (-3.0, 4.0), (0.001, -7.0)]:
        assert pearson(alpha * x + beta, y) == pytest.approx(math.copysign(r, alpha * r), abs=1e-12)


def test_t_test_identical_samples():
    result = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t == 0.0 and result.p == 1.0


def test_t_test_hand_computed():
    result = t_test([1, 2, 3], [2, 3, 4])
    assert result.t == pytest.approx(-1.224744871391589, abs=1e-12)
    assert result.df == 4
    assert result.p == pytest.approx(0.2878641347266908, abs=1e-9)


# frozen two-sided p-values for the Student-t survival function
FROZEN_P = [
    (1.0, 1, 0.500000000000),
    (2.0, 2, 0.183503419072),
    (2.5, 10, 0.031446844237),
    (3.2, 7, 0.015065811342),
    (0.5, 30, 0.620723004885),
    (4.0, 3, 0.028008456010),
    (1.96, 1000, 0.050273184956),
    (2.776, 4, 0.050022778320),
    (0.0, 5, 1.0),
]


@pytest.mark.parametrize("t,df,expected", FROZEN_P)
def test_t_sf_against_frozen_values(t, df, expected):
    assert t_sf_two_sided(t, df) == pytest.approx(expected, abs=1e-9)


def test_t_ppf975_frozen():
    assert t_ppf975(4) == pytest.approx(2.776445105198, abs=1e-6)
    assert t_ppf975(9) == pytest.approx(2.262157162854, abs=1e-6)


def test_t_test_near_degenerate_separation():
    jitter = np.array([0.0, 1e-9, -1e-9, 5e-10])
    result = t_test(jitter, 1.0 + jitter)
    assert result.p < 1e-6


def test_t_test_zero_variance_unequal_means():
    result = t_test([1.0, 1.0], [2.0, 2.0])
    assert result.p == 1e-300
    assert math.isinf(result.t) and result.t < 0


def test_t_test_antisymmetry():
    a = [0.1, 0.5, 0.9, 0.3]
    b = [0.2, 0.8, 0.4]
    r1 = t_test(a, b)
    r2 = t_test(b, a)
    assert r1.t == -r2.t
    assert r1.p == r2.p


def test_p_monotone_in_t():
    for df in (1, 4, 20, 200):
        ps = [t_sf_two_sided(t, df) for t in np.linspace(0.1, 6, 40)]
        assert all(b < a for a, b in zip(ps, ps[1:]))


def test_t_test_validation():
    with pytest.raises(EvaluationError):
        t_test([1.0], [1.0, 2.0])


def test_r_squared_basics():
    targets = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(targets, targets) == pytest.approx(1.0)
    assert r_squared(np.full(4, targets.mean()), targets) == pytest.approx(0.0, abs=1e-12)
    # anti-correlated predictions on a 3-point case: worse than the mean line
    assert r_squared([2.0, 1.0, 0.0], [0.0, 1.0, 2.0]) == pytest.approx(-3.0)


def test_r_squared_errors():
    with pytest.raises(EvaluationError):
        r_squared([1.0], [1.0])
    with pytest.raises(EvaluationError):
        r_squared([1.0, 2.0], [3.0, 3.0])
