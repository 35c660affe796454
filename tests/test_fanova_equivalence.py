"""The array-backed forest and batched fANOVA equal the recursive reference.

``repro.ml.forest`` grows each tree from row indices presorted once, scans
split gains for all sampled features at once, and routes a whole batch of
rows through the forest; ``repro.ml.fanova`` pushes each knob's
``grid x n_marginal`` probe rows through it in one call.
``reference_fanova`` is the recursive, one-row-at-a-time implementation
this replaced.  fANOVA importances steer OnlineTune's important-direction
oracle, so any difference moves trajectories; every test here asserts
``np.array_equal``:

* determinism-tier Hypothesis sweeps over tie-heavy inputs, for forest
  predictions and for importances;
* one pinned input on which a plain vectorized scan (array ``** 2``, no
  scalar re-check of near-best positions) picks different splits;
* every importance refit of a 150-interval OnlineTune TPC-C session on
  the 40-knob space, whose inputs are heavily tied.

The ``perf``-marked ratio gate at the end is outside tier-1
(``make perf-test``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_fanova as reference
from repro.ml.fanova import fanova_importance
from repro.ml.forest import RandomForest

from strategies import DETERMINISM_SETTINGS

#: on a quarter grid the split thresholds are odd eighths, which the 9-point
#: fANOVA grid and ``_EIGHTHS_PROBE`` hit exactly (the ``<=`` edge)
_QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_UNIT = st.floats(min_value=0.0, max_value=1.0)
#: 9 rows; every column takes each of the 9 eighths once
_EIGHTHS_PROBE = np.linspace(0.0, 1.0, 9)[(np.arange(9)[:, None] + 2 * np.arange(8)) % 9]


def _array(dtype, shape, elements):
    # every element drawn on its own: Hypothesis' default fill would make
    # most targets constant, and constant targets never reach a split
    return arrays(dtype, shape, elements=elements, fill=st.nothing())


@st.composite
def tie_heavy_inputs(draw):
    """(X, y) with many equal column values, equal rows and equal targets."""
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=1, max_value=8))
    layout = draw(st.sampled_from(["quarters", "repeated rows", "continuous"]))
    if layout == "repeated rows":
        n_distinct = draw(st.integers(1, max(1, n // 3)))
        distinct = draw(_array(float, (n_distinct, d), _UNIT))
        X = distinct[draw(_array(np.intp, n, st.integers(0, n_distinct - 1)))]
    else:
        X = draw(_array(float, (n, d), _QUARTERS if layout == "quarters" else _UNIT))
    target = draw(st.sampled_from(["few large levels", "continuous", "constant"]))
    if target == "few large levels":
        y = 1e6 + 500.0 * draw(_array(np.int64, n, st.integers(-3, 3)))
    elif target == "continuous":
        y = draw(_array(float, n, st.floats(min_value=-1e3, max_value=1e3)))
    else:
        y = np.full(n, draw(st.floats(min_value=-1e6, max_value=1e6)))
    return X, y


@given(data=tie_heavy_inputs(), n_trees=st.integers(2, 3),
       min_samples_leaf=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
@DETERMINISM_SETTINGS
def test_forest_predict_matches_reference(data, n_trees, min_samples_leaf, seed):
    X, y = data
    probe = np.vstack([X, _EIGHTHS_PROBE[:, :X.shape[1]]])
    params = dict(n_trees=n_trees, max_depth=8, min_samples_leaf=min_samples_leaf,
                  seed=seed)
    got = RandomForest(**params).fit(X, y).predict(probe)
    want = reference.RandomForest(**params).fit(X, y).predict(probe)
    assert np.array_equal(got, want)


@given(data=tie_heavy_inputs(), n_trees=st.integers(2, 3), n_marginal=st.sampled_from([8, 1]),
       seed=st.integers(0, 2 ** 16))
@DETERMINISM_SETTINGS
def test_fanova_importance_matches_reference(data, n_trees, n_marginal, seed):
    # with one marginal row the reference averages each grid point's trees
    # over a single column, which NumPy sums pairwise instead of in order
    X, y = data
    params = dict(n_trees=n_trees, n_marginal=n_marginal, seed=seed)
    assert np.array_equal(fanova_importance(X, y, **params),
                          reference.fanova_importance(X, y, **params))


def test_pinned_near_tie_matches_reference():
    """115 rows drawn with replacement from 38 distinct ones, normal targets.

    Different features often cut the repeated rows into the same two sets,
    so the best gains tie up to rounding.  A plain vectorized scan, which
    squares with ``x * x`` where the reference's scalar ``** 2`` calls
    ``pow``, breaks such ties differently here and moves the importances
    by up to 5.2e-3.
    """
    rng = np.random.default_rng(2)
    distinct = rng.random((115 // 3, 12))
    X = distinct[rng.integers(0, len(distinct), 115)]
    y = rng.normal(size=115)
    assert np.array_equal(fanova_importance(X, y, seed=0),
                          reference.fanova_importance(X, y, seed=0))


def test_tpcc_session_refits_match_reference(monkeypatch):
    """Every refit input of a 150-interval TPC-C session on the 40-knob space."""
    import repro.core.subspace as subspace
    from repro.harness.runner import SessionSpec, build_session_from_spec

    calls = []

    def recording(X, y, **kwargs):
        importances = fanova_importance(X, y, **kwargs)
        calls.append((X.copy(), y.copy(), kwargs, importances))
        return importances

    monkeypatch.setattr(subspace, "fanova_importance", recording)
    build_session_from_spec(SessionSpec(
        tuner="OnlineTune", workload="tpcc", space="mysql57", seed=0,
        n_iterations=150)).run()
    assert len(calls) >= 5
    assert all(X.shape[1] == 40 for X, _, _, _ in calls)
    for X, y, kwargs, importances in calls:
        assert np.array_equal(importances, reference.fanova_importance(X, y, **kwargs))


def _best_of_alternating(fns, repeats: int = 3):
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.perf
@pytest.mark.parametrize("n, d, min_ratio", [(400, 40, 3.0), (200, 5, 1.0)])
def test_refit_ratio_against_reference(n, d, min_ratio):
    """A refit is ``min_ratio`` times cheaper than the reference's.

    n = 400, d = 40 is a session's last refit on the 40-knob space; d = 5 is
    the fleets' case-study space, where each split samples one feature and
    the batched predict is most of the gain.
    """
    rng = np.random.default_rng(0)
    X = rng.random((n, d))
    y = 3.0 * X[:, 0] + np.sin(5.0 * X[:, 1]) + 0.1 * rng.normal(size=n)
    new, ref = _best_of_alternating([lambda: fanova_importance(X, y, seed=3),
                                     lambda: reference.fanova_importance(X, y, seed=3)])
    print(f"n={n} d={d}: refit {new * 1e3:.1f} ms, reference {ref * 1e3:.1f} ms, "
          f"{ref / new:.2f}x")
    assert ref / new >= min_ratio
