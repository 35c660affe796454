"""Equivalence suite for the hot-path acceleration work.

The cross-iteration kernel-block cache and the cached line-region
discretization are pure accelerations: they must never change a single
suggested configuration.  This suite pins that contract three ways:

* cache-on vs cache-off sessions emit exactly the same configurations,
  checked through the bench-scale history sizes (50/200/500);
* the :class:`~repro.harness.TuningSession` loop (cache enabled and
  staged GP appends drained after each observe, the shipping defaults)
  reproduces the recorded golden trajectories from ``tests/golden/``
  byte-for-byte;
* the cache's invalidation triggers (re-discretization, hyperparameter
  refit / refactorization, cluster reassignment, checkpoint resume) are
  exercised directly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import OnlineTune, OnlineTuneConfig
from repro.core.subspace import Subspace
from repro.gp.contextual import ContextualGP
from repro.harness import TuningSession, build_session
from repro.knobs import mysql57_space
from repro.workloads import TPCCWorkload

from service_utils import build_db, build_tuner


def _session(use_cache: bool, n_iterations: int,
             seed: int = 0) -> TuningSession:
    space = mysql57_space()
    cfg = OnlineTuneConfig(use_clustering=False,
                           max_cluster_size=n_iterations + 1,
                           use_kernel_cache=use_cache)
    tuner = OnlineTune(space, config=cfg, seed=seed)
    session = build_session(
        tuner, TPCCWorkload(seed=seed, dynamic=False, grow_data=False),
        space=space, n_iterations=n_iterations, seed=seed)
    session.record_configs = True
    return session


class TestCacheOnOffEquivalence:
    # bench scale: one session pair covering histories 50, 200 and 500
    N_ITERS = 520
    CHECKPOINTS = (50, 200, 500)

    def test_suggest_outputs_match_exactly(self):
        on = _session(True, self.N_ITERS)
        off = _session(False, self.N_ITERS)
        result_on = on.run()
        result_off = off.run()
        for h in self.CHECKPOINTS:
            assert (result_on.records[h].config
                    == result_off.records[h].config), f"diverged at {h}"
        # the strong form: every iteration matches, not just the probes
        for a, b in zip(result_on.records, result_off.records):
            assert a.config == b.config, f"diverged at iteration {a.iteration}"
            assert a.performance == b.performance
        # the accelerated run actually exercised the cache
        model = next(iter(on.tuner.models.models.values()))
        assert model.cache_hits > 100
        assert model.cache_extensions > 0
        assert model.cache_misses > 0


class TestPipelinedSessionMatchesGolden:
    """TuningSession's loop (cache on, appends drained after observe,
    the defaults) must land exactly on the golden fixtures recorded by
    the plain drive_tuner loop."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tpcc_golden_trajectory(self, seed, golden_dir, regen_golden):
        if regen_golden:
            pytest.skip("fixtures are being re-recorded")
        path = golden_dir / f"tpcc-seed{seed}.json"
        golden = json.loads(path.read_text())["configs"]
        db = build_db(seed)
        session = TuningSession(build_tuner(seed), db,
                                n_iterations=len(golden),
                                record_configs=True)
        result = session.run()
        assert len(result.records) == len(golden)
        for record, want in zip(result.records, golden):
            got = record.config
            assert set(got) == set(want)
            for key, value in want.items():
                assert got[key] == value, (record.iteration, key)


class TestDiscretizationCache:
    def _line_subspace(self) -> Subspace:
        sub = Subspace(dim=4, seed=3)
        sub.initialize(np.full(4, 0.5))
        sub.exhausted()              # switch hypercube -> line
        assert sub.kind == Subspace.LINE
        return sub

    def test_line_candidates_reused_verbatim(self):
        sub = self._line_subspace()
        first = sub.discretize(40)
        token = sub.discretize_token
        again = sub.discretize(40)
        assert again is first
        assert sub.discretize_token == token

    def test_line_rediscretization_mints_new_token(self):
        sub = self._line_subspace()
        first = sub.discretize(40)
        token = sub.discretize_token
        sub.update(success=False, improvement=0.0,
                   new_center=np.full(4, 0.25))
        second = sub.discretize(40)
        assert second is not first
        assert sub.discretize_token != token
        assert not np.array_equal(first, second)

    def test_hypercube_always_fresh(self):
        sub = Subspace(dim=4, seed=3)
        sub.initialize(np.full(4, 0.5))
        a = sub.discretize(16)
        token_a = sub.discretize_token
        b = sub.discretize(16)
        assert b is not a
        assert sub.discretize_token != token_a
        assert not np.array_equal(a[1:], b[1:])   # row 0 is the center

    def test_pickle_drops_cache_and_token(self):
        import pickle
        sub = self._line_subspace()
        sub.discretize(40)
        clone = pickle.loads(pickle.dumps(sub))
        assert clone.discretize_token == 0
        assert clone._disc_points is None
        # first use re-discretizes to the same (deterministic) candidates
        assert np.array_equal(clone.discretize(40), sub.discretize(40))


class TestKernelBlockCacheInvalidation:
    def _model(self, rng, n=60, dc=6, dx=3):
        model = ContextualGP(dc, dx)
        model.fit(rng.random((n, dc)), rng.random((n, dx)), rng.random(n),
                  optimize=False)
        return model

    def test_hit_extension_and_refit_invalidation(self):
        rng = np.random.default_rng(0)
        model = self._model(rng)
        cands = rng.random((24, 6))
        ctx = rng.random(3)
        ref = model.predict(cands, ctx)
        got = model.predict(cands, ctx, cache_token=11)     # miss (exact)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])
        hit = model.predict(cands, ctx, cache_token=11)     # pure hit
        assert model.cache_hits == 1
        np.testing.assert_allclose(hit[0], ref[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(hit[1], ref[1], rtol=0, atol=1e-10)

        # rank-1 append -> extension, cross-checked against a fresh kernel
        model.update(rng.random(6), rng.random(3), 0.4)
        ext = model.predict(cands, ctx, cache_token=11)
        assert model.cache_extensions == 1
        fresh = ContextualGP.predict(model, cands, ctx)     # plain path
        np.testing.assert_allclose(ext[0], fresh[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(ext[1], fresh[1], rtol=0, atol=1e-10)

        # a hyperparameter refit rebuilds the factor -> cache miss
        version = model.gp.factor_version
        X = model.gp._X
        model.fit(X[:, :6], X[:, 6:], model.gp._y_raw, optimize=True)
        assert model.gp.factor_version > version
        model.predict(cands, ctx, cache_token=11)
        assert model.cache_misses == 2

    def test_token_change_is_a_miss(self):
        rng = np.random.default_rng(1)
        model = self._model(rng)
        ctx = rng.random(3)
        a = rng.random((16, 6))
        b = rng.random((16, 6))
        model.predict(a, ctx, cache_token=1)
        model.predict(b, ctx, cache_token=2)
        assert model.cache_misses == 2
        # same-token-different-array (defensive): identity check catches it
        model.predict(a, ctx, cache_token=2)
        assert model.cache_misses == 3

    def test_periodic_refactorization_invalidates(self):
        rng = np.random.default_rng(2)
        model = ContextualGP(4, 2)
        model.gp.refactor_every = 8
        model.fit(rng.random((6, 4)), rng.random((6, 2)), rng.random(6),
                  optimize=False)
        cands = rng.random((10, 4))
        ctx = rng.random(2)
        model.predict(cands, ctx, cache_token=5)
        version = model.gp.factor_version
        for _ in range(9):      # crosses the refactor_every boundary
            model.update(rng.random(4), rng.random(2), 0.1)
        assert model.gp.factor_version > version
        ref = ContextualGP.predict(model, cands, ctx)
        got = model.predict(cands, ctx, cache_token=5)
        assert model.cache_misses == 2       # stale factor -> full recompute
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_cache_not_pickled(self):
        import pickle
        rng = np.random.default_rng(3)
        model = self._model(rng)
        cands = rng.random((8, 6))
        model.predict(cands, rng.random(3), cache_token=4)
        clone = pickle.loads(pickle.dumps(model))
        assert clone._cache is None


class TestResumeEquivalence:
    """Checkpoint/resume mid-session with hot caches continues exactly."""

    def test_resume_continues_identically(self, tmp_path):
        n, split = 40, 25
        a = _session(True, n, seed=2)
        b = _session(True, n, seed=2)
        result_b = b.run()

        # drive session `a` manually so we can checkpoint mid-way,
        # mirroring TuningSession's start protocol
        from service_utils import drive_tuner
        db = a.db
        tuner = a.tuner
        tuner.start(dict(db.reference_config), db.default_performance(0))
        configs, history = drive_tuner(tuner, db, 0, split)
        tuner.checkpoint(tmp_path / "mid.ckpt")
        resumed = OnlineTune.resume(tmp_path / "mid.ckpt")
        more, _ = drive_tuner(resumed, db, split, n, history)
        # resumed tuner must finish on the same trajectory the
        # uninterrupted (hot-cache) session produced
        full = [r.config for r in result_b.records]
        assert [dict(c) for c in configs + more] == [dict(c) for c in full]
