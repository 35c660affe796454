"""fANOVA-style knob importance (Hutter et al., ICML 2014 — simplified).

OnlineTune's *important direction* oracle (Appendix A3.2) samples a line
direction aligned with one of the top-5 important knobs, where importance
is estimated by functional ANOVA on a surrogate model of the observations.

This implementation fits a random forest on (unit-config, performance)
pairs and computes each knob's main-effect variance fraction by Monte-Carlo
marginalization over the other dimensions: for knob *j*,

    V_j = Var_x_j [ E_{x_-j} f(x) ]   and   importance_j = V_j / V_total.
"""

from __future__ import annotations

import numpy as np

from .forest import RandomForest

__all__ = ["fanova_importance"]


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
    # one forest call per knob: block g of the probe is the marginal sample
    # with knob j pinned to grid point g.  Each block is averaged over trees
    # on its own, as a call on that block alone would: NumPy sums a
    # one-column mean over trees pairwise, a wider one in tree order
    probe = np.tile(base, (grid, 1))
    marginal_means = np.empty(grid)
    for j in range(d):
        probe[:, j] = np.repeat(grid_points, n_marginal)
        per_tree = forest.predict_per_tree(probe)
        for g in range(grid):
            block = per_tree[:, g * n_marginal:(g + 1) * n_marginal]
            marginal_means[g] = float(np.mean(np.mean(block, axis=0)))
        importances[j] = float(np.var(marginal_means)) / total_var
        probe[:, j] = np.tile(base[:, j], grid)
    return np.clip(importances, 0.0, 1.0)
