"""Four from-scratch binary classifiers for the small downstream cohort.

Each returns a real-valued ranking score alongside the hard label so AUROC is
well-defined:

* gradient-boosted trees: depth-3 regression trees on logistic loss, 100
  rounds, learning rate 0.1, exact greedy splits (midpoint thresholds,
  first-best tie break in feature-then-position order), a node's gains for
  every feature and position computed at once from cumulative gradient and
  hessian sums; score is the boosted log-odds. Zero-gain splits are allowed
  while the node is impure, which lets depth-2 trees carve XOR-style
  interactions that have no first-order axis gain at the root.
* max-margin linear: L2-regularized hinge loss (C = 1), 500 steps of
  full-batch subgradient descent with a decaying step; score is the signed
  margin.
* logistic regression: 2,000 steps of full-batch gradient descent on the
  logistic loss (rate 1 over the curvature scale); score is the logit.
* k-nearest: k = 5 Euclidean votes; distance ties break toward the lower
  training index and vote ties toward negative; score is the positive vote
  fraction.

The hyperparameters above are fixed: each family holds them as class
constants, beside its decision threshold on the score. All four are
deterministic given the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TrainingError


class ClassifierKind(Enum):
    GRADIENT_BOOSTED_TREES = "gbdt"
    MAX_MARGIN_LINEAR = "svm"
    LOGISTIC_REGRESSION = "logreg"
    K_NEAREST = "knn"


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _validate(features: np.ndarray, labels: np.ndarray):
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise TrainingError("features must be (n, d) aligned with labels")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise TrainingError("training set contains a single class")
    if features.shape[0] < 4:
        raise TrainingError("need at least 2 samples per class")


# ---------------------------------------------------------------------------
# gradient boosted trees


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0


def _fit_tree(x, grad, hess, depth, max_depth, min_child):
    node = _Node()
    node.value = grad.sum() / (hess.sum() + 1e-12)
    if depth >= max_depth or x.shape[0] < 2 * min_child or np.allclose(grad, grad[0]):
        return node
    total_gain = grad.sum() ** 2 / (hess.sum() + 1e-12)
    # row i of gain splits every feature between its sorted rows i and i + 1
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    gs = np.cumsum(grad[order], axis=0)
    hs = np.cumsum(hess[order], axis=0)
    gl, hl = gs[:-1], hs[:-1]
    gr, hr = gs[-1] - gl, hs[-1] - hl
    gain = gl * gl / (hl + 1e-12) + gr * gr / (hr + 1e-12) - total_gain
    gain[xs[:-1] == xs[1:]] = -np.inf
    gain[: min_child - 1] = -np.inf
    gain[x.shape[0] - min_child :] = -np.inf
    # feature-major argmax: the first best split in (feature, position) order
    feature, i = divmod(int(np.argmax(gain.T)), gain.shape[0])
    if gain[i, feature] < 0.0:
        return node
    node.feature = feature
    node.threshold = 0.5 * (xs[i, feature] + xs[i + 1, feature])
    mask = x[:, node.feature] <= node.threshold
    node.left = _fit_tree(x[mask], grad[mask], hess[mask], depth + 1, max_depth, min_child)
    node.right = _fit_tree(x[~mask], grad[~mask], hess[~mask], depth + 1, max_depth, min_child)
    return node


def _tree_predict(node, x):
    if node.left is None:
        return np.full(x.shape[0], node.value)
    mask = x[:, node.feature] <= node.threshold
    out = np.empty(x.shape[0])
    out[mask] = _tree_predict(node.left, x[mask])
    out[~mask] = _tree_predict(node.right, x[~mask])
    return out


class GradientBoostedTrees:
    rounds, learning_rate, max_depth, min_child = 100, 0.1, 3, 1
    threshold = 0.0

    def fit(self, features, labels):
        y = labels.astype(float)
        rate = min(max(y.mean(), 1e-6), 1 - 1e-6)
        self.base = math.log(rate / (1.0 - rate))
        self.trees: list[_Node] = []
        score = np.full(len(y), self.base)
        for _ in range(self.rounds):
            p = _sigmoid(score)
            grad = y - p
            hess = p * (1.0 - p)
            tree = _fit_tree(features, grad, hess, 0, self.max_depth, self.min_child)
            self.trees.append(tree)
            score += self.learning_rate * _tree_predict(tree, features)
        return self

    def scores(self, features):
        score = np.full(features.shape[0], self.base)
        for tree in self.trees:
            score += self.learning_rate * _tree_predict(tree, features)
        return score


# ---------------------------------------------------------------------------
# linear models


def _curvature_scale(features: np.ndarray) -> float:
    # logistic/hinge loss smoothness grows with the squared row norm; scaling
    # steps by it keeps full-batch descent stable on any feature magnitude
    return max(1.0, float(np.mean(np.sum(features * features, axis=1))) / 4.0)


class MaxMarginLinear:
    c, iterations = 1.0, 500
    threshold = 0.0

    def fit(self, features, labels):
        n, d = features.shape
        y = np.where(labels > 0, 1.0, -1.0)
        lam = 1.0 / (self.c * n)
        scale = _curvature_scale(features)
        self.w = np.zeros(d)
        self.b = 0.0
        for t in range(1, self.iterations + 1):
            margin = y * (features @ self.w + self.b)
            violators = margin < 1.0
            step = 1.0 / (scale * math.sqrt(t))
            grad_w = lam * self.w - (y[violators, None] * features[violators]).sum(0) / n
            grad_b = -y[violators].sum() / n
            self.w -= step * grad_w
            self.b -= step * grad_b
        return self

    def scores(self, features):
        return features @ self.w + self.b


class LogisticRegression:
    learning_rate, iterations = 1.0, 2000
    threshold = 0.0

    def fit(self, features, labels):
        n, d = features.shape
        y = labels.astype(float)
        step = self.learning_rate / _curvature_scale(features)
        self.w = np.zeros(d)
        self.b = 0.0
        for _ in range(self.iterations):
            p = _sigmoid(features @ self.w + self.b)
            error = p - y
            self.w -= step * (features.T @ error) / n
            self.b -= step * error.mean()
        return self

    def scores(self, features):
        return features @ self.w + self.b


class KNearest:
    k = 5
    threshold = 0.5  # a vote tie (score exactly 0.5) resolves toward negative

    def fit(self, features, labels):
        self.features = features.copy()
        self.labels = labels.astype(int).copy()
        return self

    def scores(self, features):
        k = min(self.k, self.features.shape[0])
        out = np.empty(features.shape[0])
        for i, row in enumerate(features):
            distances = np.sum((self.features - row) ** 2, axis=1)
            nearest = np.argsort(distances, kind="stable")[:k]  # ties: lower index
            out[i] = self.labels[nearest].mean()
        return out


# ---------------------------------------------------------------------------
# uniform surface

_FAMILIES = {
    ClassifierKind.GRADIENT_BOOSTED_TREES: GradientBoostedTrees,
    ClassifierKind.MAX_MARGIN_LINEAR: MaxMarginLinear,
    ClassifierKind.LOGISTIC_REGRESSION: LogisticRegression,
    ClassifierKind.K_NEAREST: KNearest,
}


@dataclass
class Classifier:
    kind: ClassifierKind
    model: object

    def predict(self, features: np.ndarray):
        features = np.asarray(features, dtype=float)
        scores = self.model.scores(features)
        return (scores > self.model.threshold).astype(int), scores


def train_classifier(kind: ClassifierKind, features, labels) -> Classifier:
    """Fit one classifier family; deterministic given the data."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    _validate(features, labels)
    return Classifier(kind, _FAMILIES[kind]().fit(features, labels))
