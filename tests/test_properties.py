"""Cross-cutting property-based tests on system invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategies import (
    DETERMINISM_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
)

from repro.dbms import PerformanceModel
from repro.gp import GaussianProcess, Matern52Kernel
from repro.knobs import dba_default_config, mysql57_space
from repro.ml import normalized_mutual_information
from repro.workloads import TPCCWorkload, TwitterWorkload

SPACE = mysql57_space()
DBA = dba_default_config(SPACE)
MODEL = PerformanceModel()
PROFILE = TPCCWorkload(seed=0, dynamic=False, grow_data=False).profile(0)

unit_vec = st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=40, max_size=40).map(np.array)


@given(unit_vec)
@STANDARD_SETTINGS
def test_memory_pressure_drives_failure_consistency(vec):
    """A config that always fails must have pressure beyond the hard cap."""
    config = SPACE.from_unit(vec)
    result = MODEL.evaluate(config, PROFILE, noiseless=True)
    pressure = MODEL.memory_demand(config, PROFILE) / MODEL.memory_bytes
    if result.failed:
        assert pressure > 1.20
    if pressure <= 1.08:
        assert not result.failed


@given(unit_vec)
@STANDARD_SETTINGS
def test_objective_antisymmetry_olap_flag(vec):
    config = SPACE.from_unit(vec)
    result = MODEL.evaluate(config, PROFILE, noiseless=True)
    assert result.objective(False) == result.throughput
    assert result.objective(True) == -result.exec_seconds


@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.1, max_value=0.9))
@STANDARD_SETTINGS
def test_buffer_pool_weak_monotonicity(u_lo, u_hi):
    """More buffer pool never hurts when everything else is modest."""
    lo, hi = sorted((u_lo, u_hi))
    prof = TwitterWorkload(seed=0, dynamic=False).profile(0)
    base = dict(DBA)
    base["innodb_buffer_pool_size"] = SPACE["innodb_buffer_pool_size"].from_unit(lo)
    f_lo = MODEL.total_factor(SPACE.clip_config(base), prof)
    base["innodb_buffer_pool_size"] = SPACE["innodb_buffer_pool_size"].from_unit(hi)
    f_hi = MODEL.total_factor(SPACE.clip_config(base), prof)
    # DBA default leaves headroom: raising bp within [lo, hi<=0.9] is safe
    assert f_hi >= f_lo - 1e-6


@given(st.integers(min_value=0, max_value=10 ** 6))
@DETERMINISM_SETTINGS
def test_default_performance_reproducible(it):
    from repro.dbms import SimulatedMySQL
    db = SimulatedMySQL(SPACE, TPCCWorkload(seed=1), reference_config=DBA)
    assert db.default_performance(it % 500) == db.default_performance(it % 500)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=4,
                max_size=60))
@STANDARD_SETTINGS
def test_nmi_self_identity(labels):
    assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1),
                          st.floats(min_value=-2, max_value=2)),
                min_size=4, max_size=25))
@SLOW_SETTINGS
def test_gp_posterior_mean_bounded_by_data_scale(points):
    X = np.array([[p[0]] for p in points])
    y = np.array([p[1] for p in points])
    if np.ptp(y) < 1e-9:
        y[0] += 1.0
    gp = GaussianProcess(kernel=Matern52Kernel()).fit(X, y, optimize=False)
    mean, std = gp.predict(np.linspace(0, 1, 11)[:, None])
    spread = np.ptp(y)
    assert np.all(np.abs(mean - y.mean()) <= 3 * spread + 1e-6)
    assert np.all(std >= 0)


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.02, max_value=0.4))
@STANDARD_SETTINGS
def test_subspace_radius_never_leaves_bounds(dim, r):
    from repro.core import Subspace
    sub = Subspace(dim=dim, r_init=r, r_max=0.5, r_min=0.02,
                   eta_succ=1, eta_fail=1, seed=0)
    sub.initialize(np.full(dim, 0.5))
    rng = np.random.default_rng(0)
    for _ in range(30):
        sub.update(success=bool(rng.random() < 0.5), improvement=0.0)
        assert 0.02 - 1e-12 <= sub.radius <= 0.5 + 1e-12
        pts = sub.discretize(8)
        assert np.all((0.0 <= pts) & (pts <= 1.0))


@given(st.floats(min_value=-1e6, max_value=1e6))
@STANDARD_SETTINGS
def test_safety_threshold_never_stricter_than_tau(tau):
    from repro.core import SafetyAssessor
    assessor = SafetyAssessor(SPACE, None, margin=0.05, use_whitebox=False)
    assert assessor.threshold(tau) <= tau + 1e-9


def test_end_to_end_safety_invariant():
    """OnlineTune never crashes the instance across several seeds."""
    from repro.core import OnlineTune
    from repro.harness import build_session
    for seed in (0, 1, 2):
        tuner = OnlineTune(SPACE, seed=seed)
        result = build_session(tuner, TPCCWorkload(seed=seed), space=SPACE,
                               n_iterations=12, seed=seed).run()
        assert result.n_failures == 0
        assert result.n_unsafe <= 3


# ---------------------------------------------------------------------------
# knowledge-transfer weighting (seeded stdlib-random property tests)
# ---------------------------------------------------------------------------

class TestTransferWeighting:
    """Properties of the distance-weighted, history-decayed transfer path.

    Deliberately seeded ``random.Random`` sweeps (not hypothesis): the
    functions are cheap and total, so a dense deterministic sample is
    both reproducible and exhaustive enough.
    """

    def test_weight_monotone_in_signature_distance(self):
        import random
        from repro.service import transfer_weight
        rnd = random.Random(0)
        assert transfer_weight(0.0) == 1.0
        for _ in range(500):
            d1, d2 = sorted((rnd.uniform(0.0, 100.0), rnd.uniform(0.0, 100.0)))
            w1, w2 = transfer_weight(d1), transfer_weight(d2)
            assert 0.0 < w2 <= w1 <= 1.0

    def test_decay_monotone_in_native_history(self):
        import random
        from repro.core import transfer_decay
        rnd = random.Random(1)
        for _ in range(500):
            half_life = rnd.randint(1, 500)
            n1 = rnd.randint(0, 10_000)
            n2 = n1 + rnd.randint(0, 10_000)
            d1 = transfer_decay(n1, half_life)
            d2 = transfer_decay(n2, half_life)
            assert 0.0 < d2 <= d1 <= 1.0
        assert transfer_decay(0, 50) == 1.0       # no native history: full trust
        assert transfer_decay(50, 50) == 0.5      # the half-life is a half-life

    def test_entry_distance_weighting_monotone(self):
        import random
        import numpy as np
        from repro.service import KnowledgeEntry, transfer_weight
        rnd = random.Random(2)
        dim = 6
        probe = np.array([rnd.uniform(0, 1) for _ in range(dim)])
        def entry(offset):
            return KnowledgeEntry(
                tenant=f"d{offset}", checkpoint="", context_dim=dim,
                config_dim=4, n_observations=5, best_improvement=0.1,
                signature=list(probe + offset))
        for _ in range(100):
            near, far = sorted((rnd.uniform(0, 5), rnd.uniform(0, 5)))
            w_near = transfer_weight(entry(near).distance(probe))
            w_far = transfer_weight(entry(far).distance(probe))
            assert w_far <= w_near

    def test_noise_scale_monotone_in_native_history(self):
        import random
        import numpy as np
        from repro.core import ClusteredModels, DataRepository, Observation
        rnd = random.Random(3)
        for _ in range(20):
            half_life = rnd.randint(5, 200)
            weight = rnd.uniform(0.05, 1.0)
            models = ClusteredModels(config_dim=2, context_dim=2,
                                     transfer_half_life=half_life)
            repo = DataRepository(context_dim=2, config_dim=2)
            repo.add(Observation(iteration=-1, context=np.zeros(2),
                                 config_vec=np.zeros(2), performance=1.0,
                                 default_performance=1.0, weight=weight,
                                 transferred=True))
            scales = []
            for t in range(4):
                scale = models._transfer_noise_scale(repo, list(range(len(repo))))
                scales.append(scale[0])
                assert np.all(scale[1:] == 1.0)   # native rows keep unit scale
                repo.add(Observation(iteration=t, context=np.zeros(2),
                                     config_vec=np.zeros(2), performance=1.0,
                                     default_performance=1.0))
            # more native history => transferred rows count less (noisier)
            assert all(a <= b for a, b in zip(scales, scales[1:]))
            assert scales[0] == pytest.approx(1.0 / weight)

    def test_zero_distance_donor_reduces_to_unweighted_seeding(self):
        """A zero-distance donor (weight 1, no native history) must give
        the exact PR 2 behavior: the first suggest of a tuner seeded with
        transferred observations equals one seeded with plain ones."""
        import numpy as np
        from repro.core import Observation
        from service_utils import build_db, build_tuner

        def seeded_first_suggest(transferred: bool):
            from repro.baselines.base import SuggestInput
            tuner = build_tuner(seed=7)
            dim = tuner.featurizer.dim
            rng = np.random.default_rng(7)
            obs = [Observation(iteration=i - 5, context=np.full(dim, 0.4),
                               config_vec=rng.random(tuner.space.dim),
                               performance=100.0 + i, default_performance=100.0,
                               weight=1.0, transferred=transferred)
                   for i in range(5)]
            tuner.seed_observations(obs)
            db = build_db(seed=7)
            inp = SuggestInput(iteration=0, snapshot=db.observe_snapshot(0),
                               metrics={},
                               default_performance=db.default_performance(0),
                               is_olap=db.profile(0).is_olap)
            return tuner.suggest(inp)
        assert seeded_first_suggest(True) == seeded_first_suggest(False)

    def test_gp_unit_noise_scale_is_exact_fast_path(self):
        import numpy as np
        from repro.gp import GaussianProcess
        rng = np.random.default_rng(4)
        X = rng.random((20, 3))
        y = rng.random(20)
        plain = GaussianProcess().fit(X, y, optimize=False)
        scaled = GaussianProcess().fit(X, y, optimize=False,
                                       noise_scale=np.ones(20))
        probe = rng.random((7, 3))
        m1, s1 = plain.predict(probe)
        m2, s2 = scaled.predict(probe)
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)

    def test_gp_noise_scale_downweights_observations(self):
        """Inflating one observation's noise must pull the posterior mean
        at that location away from it (towards the rest of the data)."""
        import numpy as np
        from repro.gp import GaussianProcess
        X = np.linspace(0, 1, 12)[:, None]
        y = np.zeros(12)
        y[5] = 5.0                                 # the down-weighted outlier
        def mean_at_outlier(scale5):
            scale = np.ones(12)
            scale[5] = scale5
            gp = GaussianProcess(noise=0.1).fit(X, y, optimize=False,
                                                noise_scale=scale)
            return float(gp.predict(X[5:6])[0][0])
        full = mean_at_outlier(1.0)
        muted = mean_at_outlier(100.0)
        assert abs(muted) < abs(full)


class TestKernelBlockCacheProperties:
    """Random-interleaving property tests (stdlib ``random``) for the
    cross-iteration kernel-block cache.

    Whatever order appends, hyperparameter refits, re-discretizations and
    cluster switches arrive in, a cached prediction must agree with one
    computed from freshly evaluated kernels — i.e. the cache never serves
    a stale Matérn block or a stale ``V @ M`` product.
    """

    CONFIG_DIM = 5
    CONTEXT_DIM = 3
    N_CANDIDATES = 24

    def _fresh_model(self, rnd):
        import numpy as np
        from repro.gp.contextual import ContextualGP
        model = ContextualGP(self.CONFIG_DIM, self.CONTEXT_DIM)
        n0 = rnd.randint(5, 12)
        data = {
            "X": [[rnd.random() for _ in range(self.CONFIG_DIM)]
                  for _ in range(n0)],
            "C": [[rnd.random() for _ in range(self.CONTEXT_DIM)]
                  for _ in range(n0)],
            "y": [rnd.random() for _ in range(n0)],
        }
        model.fit(np.array(data["X"]), np.array(data["C"]),
                  np.array(data["y"]), optimize=False)
        return model, data

    def _candidates(self, rnd):
        import numpy as np
        return np.array([[rnd.random() for _ in range(self.CONFIG_DIM)]
                         for _ in range(self.N_CANDIDATES)])

    def _check(self, model, cands, token, rnd):
        """Cached prediction vs freshly computed kernels + block equality."""
        import numpy as np
        from repro.gp.kernels import additive_split
        ctx = np.array([rnd.random() for _ in range(self.CONTEXT_DIM)])
        got_mean, got_std = model.predict(cands, ctx, cache_token=token)
        ref_mean, ref_std = model.predict(cands, ctx)      # fresh kernels
        np.testing.assert_allclose(got_mean, ref_mean, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got_std, ref_std, rtol=1e-9, atol=1e-9)
        cache = model._cache
        if cache is not None and cache.candidates is cands:
            config_part, _ = additive_split(model.gp.kernel)
            Xq = model._join(cands, ctx)
            fresh_M = config_part(model.gp._X, Xq)
            np.testing.assert_allclose(cache.Mbuf[:cache.n], fresh_M,
                                       rtol=1e-12, atol=1e-12)
            fresh_vM = model.gp._V @ fresh_M
            np.testing.assert_allclose(cache.vMbuf[:cache.n], fresh_vM,
                                       rtol=1e-8, atol=1e-10)

    def test_random_interleavings_never_serve_stale_blocks(self):
        import random

        import numpy as np
        for case in range(6):
            rnd = random.Random(1000 + case)
            models = [self._fresh_model(rnd) for _ in range(2)]
            active = 0
            cands = self._candidates(rnd)
            token = 1
            for _ in range(50):
                op = rnd.choice(("add", "add", "refit", "rediscretize",
                                 "cluster_switch", "predict", "predict"))
                model, data = models[active]
                if op == "add":
                    x = [rnd.random() for _ in range(self.CONFIG_DIM)]
                    c = [rnd.random() for _ in range(self.CONTEXT_DIM)]
                    y = rnd.random()
                    data["X"].append(x)
                    data["C"].append(c)
                    data["y"].append(y)
                    model.update(np.array(x), np.array(c), y)
                elif op == "refit":
                    model.fit(np.array(data["X"]), np.array(data["C"]),
                              np.array(data["y"]),
                              optimize=rnd.random() < 0.3)
                elif op == "rediscretize":
                    cands = self._candidates(rnd)
                    token += 1
                elif op == "cluster_switch":
                    active = 1 - active
                    continue
                self._check(models[active][0], cands, token, rnd)

    def test_stale_array_same_token_is_recomputed(self):
        """Defence in depth: even a (buggy) caller reusing a token for a
        different candidate array must not get the old block."""
        import random

        import numpy as np
        rnd = random.Random(7)
        model, _ = self._fresh_model(rnd)
        a = self._candidates(rnd)
        b = self._candidates(rnd)
        ctx = np.array([rnd.random() for _ in range(self.CONTEXT_DIM)])
        model.predict(a, ctx, cache_token=3)
        got = model.predict(b, ctx, cache_token=3)
        ref = model.predict(b, ctx)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

# ---------------------------------------------------------------------------
# batched rank-k appends (determinism tier)
# ---------------------------------------------------------------------------

class TestBatchedAppendProperties:
    """Hypothesis sweeps over the rank-k Cholesky extension.

    These are the determinism-critical invariants of the batched-append
    frontier: whatever batch schedule arrives, ``add_points`` (and the
    contextual ``update`` batch route above it) must land within 1e-8 of
    the k sequential rank-1 appends it replaces.  A counterexample here
    means fused serving rounds silently diverge from solo serving,
    so the tier runs hundreds of schedules.
    """

    TOL = 1e-8

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.lists(st.integers(min_value=1, max_value=6),
                    min_size=1, max_size=4))
    @DETERMINISM_SETTINGS
    def test_add_points_matches_sequential_appends(self, seed, schedule):
        rng = np.random.default_rng(seed)
        d = 3
        X = rng.random((6, d))
        y = rng.normal(50.0, 5.0, 6)
        batched = GaussianProcess(kernel=Matern52Kernel())
        batched.fit(X, y, optimize=False)
        seq = GaussianProcess(kernel=Matern52Kernel())
        seq.kernel.theta = batched.kernel.theta
        seq.noise = batched.noise
        seq.fit(X, y, optimize=False)
        for k in schedule:
            Xk = rng.random((k, d))
            yk = rng.normal(55.0, 5.0, k)
            batched.add_points(Xk, yk)
            for i in range(k):
                seq.add_point(Xk[i], float(yk[i]))
        probe = rng.random((5, d))
        m_b, s_b = batched.predict(probe)
        m_s, s_s = seq.predict(probe)
        np.testing.assert_allclose(m_b, m_s, atol=self.TOL, rtol=0)
        np.testing.assert_allclose(s_b, s_s, atol=self.TOL, rtol=0)

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=2, max_value=6))
    @DETERMINISM_SETTINGS
    def test_contextual_batch_update_matches_sequential(self, seed, k):
        from repro.gp import ContextualGP
        rng = np.random.default_rng(seed)
        cdim, xdim = 3, 2
        configs, contexts = rng.random((6, cdim)), rng.random((6, xdim))
        y = rng.normal(10.0, 2.0, 6)
        bat = ContextualGP(cdim, xdim)
        bat.fit(configs, contexts, y, optimize=False)
        seq = ContextualGP(cdim, xdim)
        seq.gp.kernel.theta = bat.gp.kernel.theta
        seq.gp.noise = bat.gp.noise
        seq.fit(configs, contexts, y, optimize=False)
        new_c, new_x = rng.random((k, cdim)), rng.random((k, xdim))
        new_y = rng.normal(12.0, 2.0, k)
        bat.update(new_c, new_x, new_y)
        for i in range(k):
            seq.update(new_c[i], new_x[i], float(new_y[i]))
        probe, at = rng.random((5, cdim)), rng.random(xdim)
        m_b, s_b = bat.predict(probe, at)
        m_s, s_s = seq.predict(probe, at)
        np.testing.assert_allclose(m_b, m_s, atol=self.TOL, rtol=0)
        np.testing.assert_allclose(s_b, s_s, atol=self.TOL, rtol=0)
