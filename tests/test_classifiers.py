import numpy as np
import pytest

from glp.classifiers import ClassifierKind, _fit_tree, _Node, train_classifier
from glp.errors import TrainingError


def test_single_class_rejected():
    x = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(TrainingError, match="single class"):
        train_classifier(ClassifierKind.LOGISTIC_REGRESSION, x, np.ones(10))


def test_knn_votes_the_five_nearest():
    # two 3-row clusters: each query sees its own cluster and two rows of the other
    x = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_classifier(ClassifierKind.K_NEAREST, x, y)
    labels, scores = model.predict(np.array([[0.1], [10.1]]))
    np.testing.assert_allclose(scores, [0.4, 0.6], rtol=0, atol=1e-12)
    assert np.array_equal(labels, [0, 1])


def test_knn_vote_tie_breaks_negative():
    x = np.array([[0.0], [2.0], [10.0], [12.0]])
    y = np.array([1, 0, 1, 0])
    model = train_classifier(ClassifierKind.K_NEAREST, x, y)  # k = 5 > 4 rows: all vote
    labels, scores = model.predict(np.array([[1.0]]))
    assert scores[0] == 0.5
    assert labels[0] == 0


def test_knn_distance_tie_lower_index():
    # four near rows vote 2-2; the 5th neighbour is a tie between index 0
    # (label 1) and index 1 (label 0), both at distance 5
    x = np.array([[5.0], [-5.0], [0.1], [-0.2], [0.3], [-0.4]])
    y = np.array([1, 0, 1, 0, 1, 0])
    model = train_classifier(ClassifierKind.K_NEAREST, x, y)
    labels, scores = model.predict(np.array([[0.0]]))
    assert scores[0] == pytest.approx(0.6)  # index 0 wins the tie
    assert labels[0] == 1


def test_logistic_regression_separable_1d():
    x = np.concatenate([np.full(10, -1.0), np.full(10, 1.0)])[:, None]
    x = x + np.linspace(-0.05, 0.05, 20)[:, None]
    y = np.concatenate([np.zeros(10, dtype=int), np.ones(10, dtype=int)])
    model = train_classifier(ClassifierKind.LOGISTIC_REGRESSION, x, y)
    labels, _ = model.predict(x)
    assert np.array_equal(labels, y)


def test_max_margin_separable():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(-2, 0.3, (15, 2)), rng.normal(2, 0.3, (15, 2))])
    y = np.concatenate([np.zeros(15, dtype=int), np.ones(15, dtype=int)])
    model = train_classifier(ClassifierKind.MAX_MARGIN_LINEAR, x, y)
    labels, scores = model.predict(x)
    assert np.array_equal(labels, y)
    assert np.all(scores[y == 1] > scores[y == 0].max())


def test_gbdt_xor():
    rng = np.random.default_rng(7)
    centers = [(-1, -1, 0), (1, 1, 0), (-1, 1, 1), (1, -1, 1)]
    xs, ys = [], []
    for cx, cy, label in centers:
        for _ in range(4):
            xs.append([cx + rng.normal(0, 0.1), cy + rng.normal(0, 0.1)])
            ys.append(label)
    x = np.array(xs)
    y = np.array(ys)
    model = train_classifier(ClassifierKind.GRADIENT_BOOSTED_TREES, x, y)
    labels, _ = model.predict(x)
    assert np.mean(labels == y) == 1.0


@pytest.mark.parametrize("kind", list(ClassifierKind))
def test_deterministic(kind):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 4))
    y = (x[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
    if len(np.unique(y)) < 2:
        pytest.skip("degenerate draw")
    a = train_classifier(kind, x, y)
    b = train_classifier(kind, x, y)
    la, sa = a.predict(x)
    lb, sb = b.predict(x)
    assert np.array_equal(la, lb)
    assert np.array_equal(sa, sb)


@pytest.mark.parametrize("kind", list(ClassifierKind))
def test_scores_rank_separable_data(kind):
    rng = np.random.default_rng(19)
    x = np.concatenate([rng.normal(-1, 0.4, (20, 3)), rng.normal(1, 0.4, (20, 3))])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    model = train_classifier(kind, x, y)
    _, scores = model.predict(x)
    # positives should rank above negatives on average
    assert scores[y == 1].mean() > scores[y == 0].mean()


def _reference_tree(x, grad, hess, depth, max_depth, min_child):
    """Exact greedy search one split position at a time, the first best
    (feature, position) kept; the reference for `_fit_tree`."""
    node = _Node()
    node.value = grad.sum() / (hess.sum() + 1e-12)
    if depth >= max_depth or x.shape[0] < 2 * min_child or np.allclose(grad, grad[0]):
        return node
    total_gain = grad.sum() ** 2 / (hess.sum() + 1e-12)
    best = None
    for feature in range(x.shape[1]):
        order = np.argsort(x[:, feature], kind="stable")
        xs = x[order, feature]
        gs = np.cumsum(grad[order])
        hs = np.cumsum(hess[order])
        for i in range(min_child - 1, x.shape[0] - min_child):
            if xs[i] == xs[i + 1]:
                continue
            gl, hl = gs[i], hs[i]
            gr, hr = gs[-1] - gl, hs[-1] - hl
            gain = gl * gl / (hl + 1e-12) + gr * gr / (hr + 1e-12) - total_gain
            if best is None or gain > best[0]:
                best = (gain, feature, 0.5 * (xs[i] + xs[i + 1]))
    if best is None or best[0] < 0.0:
        return node
    _, node.feature, node.threshold = best
    mask = x[:, node.feature] <= node.threshold
    node.left = _reference_tree(x[mask], grad[mask], hess[mask], depth + 1, max_depth, min_child)
    node.right = _reference_tree(x[~mask], grad[~mask], hess[~mask], depth + 1, max_depth, min_child)
    return node


def _same_tree(a, b):
    if (a.feature, a.threshold, a.value) != (b.feature, b.threshold, b.value):
        return False
    if a.left is None or b.left is None:
        return a.left is None and b.left is None
    return _same_tree(a.left, b.left) and _same_tree(a.right, b.right)


@pytest.mark.parametrize("min_child", [1, 2])
def test_fit_tree_matches_position_loop_on_ties(min_child):
    rng = np.random.default_rng(min_child)
    splits = 0
    for _ in range(200):
        n = int(rng.integers(4, 40))
        # coarse values: ties within a feature, and equal gains across features
        x = np.round(rng.normal(size=(n, int(rng.integers(1, 8)))), 0)
        x[:, -1] = x[:, 0]
        p = np.round(rng.uniform(0.05, 0.95, n), 1)
        grad = rng.integers(0, 2, n) - p
        hess = p * (1.0 - p)
        tree = _fit_tree(x, grad, hess, 0, 3, min_child)
        assert _same_tree(tree, _reference_tree(x, grad, hess, 0, 3, min_child))
        splits += tree.left is not None
    assert splits > 100
