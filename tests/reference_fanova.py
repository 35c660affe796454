"""Reference fANOVA importance: the recursive CART forest and per-grid-point loop.

This is the original object-per-node implementation that
``repro.ml.forest`` and ``repro.ml.fanova`` replaced with array-backed
trees, a presorted vectorized split scan and a batched predict.  It is
kept verbatim as the equivalence reference: the production path must
return ``np.array_equal`` predictions and importances (see
``tests/test_fanova_equivalence.py``).  Not a test module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["TreeNode", "RegressionTree", "RandomForest", "fanova_importance"]


@dataclass
class TreeNode:
    """A node in a regression tree.

    Leaves have ``feature is None`` and carry ``value``; internal nodes
    route ``x[feature] <= threshold`` to ``left``, else ``right``.
    """

    feature: Optional[int] = None
    threshold: float = 0.0
    value: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """CART regression tree with variance-reduction splits."""

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 3,
                 max_features: Optional[int] = None, seed: int = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.root: Optional[TreeNode] = None
        self.n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        self.root = self._build(X, y, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int,
               rng: np.random.Generator) -> TreeNode:
        if len(y) == 0:
            return TreeNode(value=0.0)
        node = TreeNode(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf or np.ptp(y) < 1e-12:
            return node
        best = self._best_split(X, y, rng)
        if best is None:
            return node
        feature, threshold = best
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> Optional[Tuple[int, float]]:
        n, d = X.shape
        k = self.max_features or d
        features = rng.permutation(d)[:k]
        base_sse = float(np.sum((y - y.mean()) ** 2))
        best_gain, best = 1e-12, None
        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            xs, ys = X[order, feature], y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys ** 2)
            total_sum, total_sq = csum[-1], csq[-1]
            for i in range(self.min_samples_leaf - 1, n - self.min_samples_leaf):
                if xs[i] == xs[i + 1]:
                    continue
                nl = i + 1
                nr = n - nl
                sse_l = csq[i] - csum[i] ** 2 / nl
                sse_r = (total_sq - csq[i]) - (total_sum - csum[i]) ** 2 / nr
                gain = base_sse - (sse_l + sse_r)
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(0.5 * (xs[i] + xs[i + 1])))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("RegressionTree used before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self._predict_one(row) for row in X])

    def _predict_one(self, x: np.ndarray) -> float:
        node = self.root
        while node is not None and not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value if node is not None else 0.0


class RandomForest:
    """Bootstrap ensemble of regression trees."""

    def __init__(self, n_trees: int = 16, max_depth: int = 8,
                 min_samples_leaf: int = 3, max_features: Optional[int] = None,
                 seed: int = 0) -> None:
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees: List[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        max_features = self.max_features or max(1, X.shape[1] // 3)
        self.trees = []
        for t in range(self.n_trees):
            idx = rng.integers(0, n, size=n)
            tree = RegressionTree(self.max_depth, self.min_samples_leaf,
                                  max_features, seed=self.seed + t)
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("RandomForest used before fit()")
        return np.mean([tree.predict(X) for tree in self.trees], axis=0)


def fanova_importance(X: np.ndarray, y: np.ndarray, n_trees: int = 12,
                      grid: int = 9, n_marginal: int = 64,
                      seed: int = 0) -> np.ndarray:
    """Main-effect importance fraction per input dimension.

    Parameters
    ----------
    X:
        (n, d) unit-hypercube configurations.
    y:
        (n,) observed performance values.
    grid:
        Number of evaluation points along each dimension.
    n_marginal:
        Monte-Carlo samples used to marginalize the remaining dimensions.

    Returns
    -------
    A length-d array of non-negative importances summing to <= 1
    (interactions account for the remainder).  If the response is constant
    all importances are zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n < 4 or np.ptp(y) < 1e-12:
        return np.zeros(d)

    forest = RandomForest(n_trees=n_trees, max_depth=8,
                          min_samples_leaf=2, seed=seed).fit(X, y)
    rng = np.random.default_rng(seed)
    base = rng.random((n_marginal, d))
    total_var = float(np.var(forest.predict(base)))
    if total_var < 1e-12:
        return np.zeros(d)

    importances = np.zeros(d)
    grid_points = np.linspace(0.0, 1.0, grid)
    for j in range(d):
        marginal_means = np.empty(grid)
        probe = base.copy()
        for g, value in enumerate(grid_points):
            probe[:, j] = value
            marginal_means[g] = float(np.mean(forest.predict(probe)))
        importances[j] = float(np.var(marginal_means)) / total_var
    return np.clip(importances, 0.0, 1.0)
