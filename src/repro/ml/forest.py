"""Regression trees and random forests (substrate for fANOVA).

A compact CART implementation: axis-aligned splits minimizing squared
error, feature subsampling per split, bootstrap rows per tree.  Trees are
array-backed (one entry per node in each of five arrays) and grown
depth-first from row indices presorted once per tree; a forest routes a
whole batch of rows through all of its trees level by level.

The splits are those of the textbook scalar scan: at each node the
features of ``rng.permutation(d)[:k]`` are scanned in that order, each
over its stably sorted rows, and the first position with the strictly
largest gain above ``1e-12`` wins, with the gain evaluated as the scalar
expression in :func:`_scalar_gain`.  The vectorized scan only selects the
positions that can win; those are re-evaluated with that expression.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["RegressionTree", "RandomForest"]

#: a split must reduce the squared error by more than this
_MIN_GAIN = 1e-12
#: an array ``** 2`` computes ``x * x`` where the split decision's NumPy
#: scalar ``** 2`` calls libm ``pow``; the two gains differ by a few ulps of
#: the terms' magnitudes, and this relative bound covers that with a wide margin
_TIE_RTOL = 64.0 * np.finfo(float).eps


def _scalar_gain(base_sse: float, csum: np.ndarray, csq: np.ndarray,
                 i: int, n: int):
    """Squared-error reduction of splitting sorted rows after position *i*.

    Evaluated on NumPy scalars, term by term, exactly as the split decision
    is defined; the vectorized scan in ``RegressionTree._best_split`` only
    pre-selects the positions this is evaluated at.
    """
    nl = i + 1
    nr = n - nl
    total_sum, total_sq = csum[-1], csq[-1]
    sse_l = csq[i] - csum[i] ** 2 / nl
    sse_r = (total_sq - csq[i]) - (total_sum - csum[i]) ** 2 / nr
    return base_sse - (sse_l + sse_r)


class RegressionTree:
    """CART regression tree with variance-reduction splits.

    After :meth:`fit`, node *i* is a leaf when ``feature[i] < 0``; an
    internal node routes ``x[feature[i]] <= threshold[i]`` to ``left[i]``,
    else to ``right[i]``.  Node 0 is the root, and a leaf's children are
    itself, so routing a row for ``depth_`` steps lands it on its leaf.
    """

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 3,
                 max_features: Optional[int] = None, seed: int = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.n_features_: int = 0
        self.depth_: int = 0
        self.feature: Optional[np.ndarray] = None
        self.threshold: Optional[np.ndarray] = None
        self.left: Optional[np.ndarray] = None
        self.right: Optional[np.ndarray] = None
        self.value: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        self.n_features_ = d
        self._X_T = np.ascontiguousarray(X.T)
        self._y = y
        self._rng = np.random.default_rng(self.seed)
        self._grown: List[list] = []
        self.depth_ = 0
        # each row of ``sorted_rows`` lists the node's rows in the stable
        # order of one feature; partitioning it with a boolean mask keeps
        # that order, so no node sorts again
        sorted_rows = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self._grow(np.arange(n), sorted_rows, depth=0)
        feature, threshold, left, right, value = zip(*self._grown)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)
        del self._X_T, self._y, self._rng, self._grown
        return self

    def _grow(self, rows: np.ndarray, sorted_rows: np.ndarray, depth: int) -> int:
        """Grow the subtree over *rows* (ascending); return its node index."""
        node = len(self._grown)
        self.depth_ = max(self.depth_, depth)
        if len(rows) == 0:
            self._grown.append([-1, 0.0, node, node, 0.0])
            return node
        y = self._y[rows]
        mean = y.mean()
        self._grown.append([-1, 0.0, node, node, float(mean)])
        if (depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf
                or y.max() - y.min() < 1e-12):
            return node
        best = self._best_split(y, mean, sorted_rows)
        if best is None:
            return node
        feature, threshold = best
        goes_left = self._X_T[feature] <= threshold
        in_left = goes_left[sorted_rows]
        d = sorted_rows.shape[0]
        left = self._grow(rows[goes_left[rows]], sorted_rows[in_left].reshape(d, -1),
                          depth + 1)
        right = self._grow(rows[~goes_left[rows]], sorted_rows[~in_left].reshape(d, -1),
                           depth + 1)
        self._grown[node][:4] = [feature, threshold, left, right]
        return node

    def _best_split(self, y: np.ndarray, mean: float,
                    sorted_rows: np.ndarray) -> Optional[Tuple[int, float]]:
        d, n = sorted_rows.shape
        k = self.max_features or d
        features = self._rng.permutation(d)[:k]
        base_sse = float(np.sum((y - mean) ** 2))
        order = sorted_rows[features]
        xs = self._X_T[features[:, None], order]
        ys = self._y[order]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys ** 2, axis=1)

        # gain of every split position i in [lo, hi), all features at once
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf
        nl = np.arange(lo + 1, hi + 1)
        c, q = csum[:, lo:hi], csq[:, lo:hi]
        total_sum, total_sq = csum[:, -1:], csq[:, -1:]
        sse_l = q - c ** 2 / nl
        sse_r = (total_sq - q) - (total_sum - c) ** 2 / (n - nl)
        gain = base_sse - (sse_l + sse_r)
        gain[xs[:, lo:hi] == xs[:, lo + 1:hi + 1]] = -np.inf

        # every term is bounded by total_sq, so this bounds |gain - scalar gain|
        tol = _TIE_RTOL * (abs(base_sse) + 4.0 * float(total_sq.max()))
        contenders = (gain >= gain.max() - 2.0 * tol) & (gain > _MIN_GAIN - tol)
        # feature-permutation order, then position order, strict '>'
        best_gain, best = _MIN_GAIN, None
        for f, j in zip(*np.nonzero(contenders)):
            i = lo + int(j)
            split_gain = _scalar_gain(base_sse, csum[f], csq[f], i, n)
            if split_gain > best_gain:
                best_gain = split_gain
                best = (int(features[f]), float(0.5 * (xs[f, i] + xs[f, i + 1])))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("RegressionTree used before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nodes = (self.feature, self.threshold, self.left, self.right, self.value)
        return _route(X, nodes, np.zeros(1, dtype=np.intp), self.depth_)[0]


def _route(X: np.ndarray, nodes: tuple, roots: np.ndarray, depth: int) -> np.ndarray:
    """Leaf value each row of *X* reaches from each root: ``(len(roots), len(X))``."""
    feature, threshold, left, right, value = nodes
    m, d = X.shape
    flat = X.ravel()
    node = np.repeat(roots, m)
    row_start = np.tile(np.arange(m) * d, len(roots))
    for _ in range(depth):
        # a leaf's feature -1 reads some other cell; both its children are itself
        goes_left = flat[row_start + feature[node]] <= threshold[node]
        node = np.where(goes_left, left[node], right[node])
    return value[node].reshape(len(roots), m)


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
        if not self.trees:
            return self
        # all trees' nodes in one set of arrays, tree t's root at roots[t]
        sizes = [len(tree.value) for tree in self.trees]
        self._roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        self._nodes = (
            np.concatenate([tree.feature for tree in self.trees]),
            np.concatenate([tree.threshold for tree in self.trees]),
            np.concatenate([tree.left + r for tree, r in zip(self.trees, self._roots)]),
            np.concatenate([tree.right + r for tree, r in zip(self.trees, self._roots)]),
            np.concatenate([tree.value for tree in self.trees]),
        )
        self._depth = max(tree.depth_ for tree in self.trees)
        return self

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Every tree's prediction for every row of *X*: ``(n_trees, len(X))``."""
        if not self.trees:
            raise RuntimeError("RandomForest used before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _route(X, self._nodes, self._roots, self._depth)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.mean(self.predict_per_tree(X), axis=0)
