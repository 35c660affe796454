"""Tests for the tuning-as-a-service layer (repro.service).

Covers the envelope format (corruption/version rejection), checkpoint
round-trip state equality, bit-identical suggest trajectories after
resume (including in a fresh process), multi-tenant service isolation
under LRU eviction, tenants stepped together through ``step_batch``
(they match the harness runner), knowledge-base warm starts, and the
``demo`` command end to end.
"""

from __future__ import annotations

import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.base import Feedback, SuggestInput
from repro.core import Observation, OnlineTune
from repro.dbms import PerformanceModel, SimulatedMySQL
from repro.harness import ParallelRunner, SessionSpec, build_session_from_spec
from repro.knobs import case_study_space
from repro.service import (
    CheckpointError,
    CheckpointStore,
    KnowledgeBase,
    LeaseLostError,
    TenantSpec,
    TuningService,
    load_checkpoint,
    read_metadata,
    repository_signature,
    save_checkpoint,
)
from repro.workloads import TPCCWorkload

from service_utils import build_reference_db, step_together

ITERS = 14


def _build_db(seed: int) -> SimulatedMySQL:
    space = case_study_space()
    return SimulatedMySQL(space, TPCCWorkload(seed=seed),
                          model=PerformanceModel(noise_std=0.02), seed=seed)


def _build_tuner(seed: int) -> OnlineTune:
    return OnlineTune(case_study_space(), seed=seed)


def _step(tuner_suggest, tuner_observe, db, t, last_metrics):
    """One suggest/observe interval; returns (config, metrics)."""
    profile = db.profile(t)
    snapshot = db.observe_snapshot(t)
    tau = db.default_performance(t)
    inp = SuggestInput(iteration=t, snapshot=snapshot, metrics=last_metrics,
                       default_performance=tau, is_olap=profile.is_olap)
    config = tuner_suggest(inp)
    result = db.run_interval(t, config)
    perf = result.objective(profile.is_olap)
    tuner_observe(Feedback(iteration=t, config=config, performance=perf,
                           metrics=result.metrics, failed=result.failed,
                           default_performance=tau))
    return config, result.metrics


def _drive(tuner, db, start, stop, last_metrics):
    """Drive [start, stop) intervals; returns (configs, last_metrics)."""
    configs = []
    metrics = last_metrics
    for t in range(start, stop):
        config, metrics = _step(tuner.suggest, tuner.observe, db, t, metrics)
        configs.append(config)
    return configs, metrics


def _resume_and_drive(path: str, stop: int):
    """Worker for the fresh-process resume test (must be module-level)."""
    state, _meta = load_checkpoint(path)
    return _drive(state["tuner"], state["db"], state["next_iter"], stop,
                  state["last_metrics"])[0]


class TestEnvelope:
    def test_round_trip_payload_and_metadata(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"a": np.arange(5)}, metadata={"k": 1})
        payload, meta = load_checkpoint(path)
        assert np.array_equal(payload["a"], np.arange(5))
        assert meta["k"] == 1
        assert read_metadata(path) == meta

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_corrupt_payload_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, list(range(100)))
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF                     # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, list(range(100)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        import struct
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, [1, 2, 3])
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)    # future format version
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="v99"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")


class TestCheckpointRoundTrip:
    def test_full_state_equality(self, tmp_path):
        tuner = _build_tuner(seed=5)
        db = _build_db(seed=5)
        _drive(tuner, db, 0, 10, {})
        path = tuner.checkpoint(tmp_path / "t.ckpt")
        clone = OnlineTune.resume(path)

        # repository columns round-trip exactly
        assert len(clone.repo) == len(tuner.repo)
        assert np.array_equal(clone.repo.contexts(), tuner.repo.contexts())
        assert np.array_equal(clone.repo.configs(), tuner.repo.configs())
        assert np.array_equal(clone.repo.performances(),
                              tuner.repo.performances())
        assert np.array_equal(clone.repo.failed_flags(),
                              tuner.repo.failed_flags())
        assert clone.repo.best_index() == tuner.repo.best_index()
        # cluster assignments and per-cluster GP state round-trip exactly
        assert clone.models.labels == tuner.models.labels
        assert set(clone.models.models) == set(tuner.models.models)
        for label, model in tuner.models.models.items():
            other = clone.models.models[label]
            assert other.n_observations == model.n_observations
            assert np.array_equal(other.gp.kernel.theta, model.gp.kernel.theta)
            assert other.gp.noise == model.gp.noise
            if model.n_observations:
                assert np.array_equal(other.gp._L, model.gp._L)
        # RNG state round-trips exactly (the heart of bit-identity)
        assert (clone.rng.bit_generator.state
                == tuner.rng.bit_generator.state)
        for label, sub in tuner.subspaces.items():
            assert (clone.subspaces[label].rng.bit_generator.state
                    == sub.rng.bit_generator.state)

    def test_checkpoint_metadata(self, tmp_path):
        tuner = _build_tuner(seed=1)
        path = tuner.checkpoint(tmp_path / "t.ckpt", metadata={"note": "hi"})
        meta = read_metadata(path)
        assert meta["tuner_class"] == "OnlineTune"
        assert meta["n_observations"] == 0
        assert meta["note"] == "hi"

    def test_resume_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"not": "a tuner"})
        with pytest.raises(CheckpointError):
            OnlineTune.resume(path)


class TestResumeTrajectory:
    """A session checkpointed at iteration k and resumed — in this or a
    fresh process — emits exactly the uninterrupted run's suggestions."""

    @pytest.mark.parametrize("k", [3, 8])
    def test_bit_identical_continuation_in_process(self, tmp_path, k):
        baseline, _ = _drive(_build_tuner(seed=9), _build_db(seed=9),
                             0, ITERS, {})
        tuner, db = _build_tuner(seed=9), _build_db(seed=9)
        prefix, metrics = _drive(tuner, db, 0, k, {})
        assert prefix == baseline[:k]
        path = tuner.checkpoint(tmp_path / f"k{k}.ckpt")
        resumed = OnlineTune.resume(path)
        suffix, _ = _drive(resumed, db, k, ITERS, metrics)
        assert suffix == baseline[k:]

    def test_bit_identical_continuation_fresh_process(self, tmp_path):
        k = 6
        baseline, _ = _drive(_build_tuner(seed=21), _build_db(seed=21),
                             0, ITERS, {})
        tuner, db = _build_tuner(seed=21), _build_db(seed=21)
        _prefix, metrics = _drive(tuner, db, 0, k, {})
        path = str(tmp_path / "state.ckpt")
        save_checkpoint(path, {"tuner": tuner, "db": db,
                               "last_metrics": metrics, "next_iter": k})
        with ProcessPoolExecutor(max_workers=1) as pool:
            suffix = pool.submit(_resume_and_drive, path, ITERS).result()
        assert suffix == baseline[k:]


class TestCheckpointStore:
    def test_sequencing_and_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        p1 = store.save("a", [1])
        p2 = store.save("a", [2])
        assert [p.name for p in store.list("a")] == [p1.name, p2.name]
        assert store.latest_path("a") == p2
        assert store.load_latest("a")[0] == [2]
        assert store.tenants() == ["a"]

    def test_tenant_isolation_by_namespace(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("alice", "alice-state")
        store.save("bob", "bob-state")
        assert store.load_latest("alice")[0] == "alice-state"
        assert store.load_latest("bob")[0] == "bob-state"

    @pytest.mark.parametrize("bad", ["../evil", "a/b", "", ".hidden",
                                     "x" * 65, "sp ace"])
    def test_bad_tenant_ids_rejected(self, tmp_path, bad):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save(bad, [1])

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(5):
            store.save("a", [i])
        assert store.prune("a", keep=2) == 3
        assert store.load_latest("a")[0] == [4]

    def test_missing_tenant_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError):
            store.load_latest("ghost")


class TestTuningService:
    N_TENANTS = 8
    STEPS = 5

    def test_multi_tenant_isolation_under_lru(self, tmp_path):
        """>= 8 interleaved tenants through a 3-slot LRU (constant
        checkpoint/evict/rehydrate churn) match isolated runs exactly."""
        service = TuningService(tmp_path, max_live_sessions=3)
        tenants = [f"tenant-{i}" for i in range(self.N_TENANTS)]
        dbs = {}
        for i, tenant in enumerate(tenants):
            service.create(tenant, TenantSpec(space="case_study", seed=i))
            dbs[tenant] = _build_db(seed=i)
        hosted = {t: [] for t in tenants}
        metrics = {t: {} for t in tenants}
        for step in range(self.STEPS):
            for tenant in tenants:          # interleave across tenants
                config, metrics[tenant] = _step(
                    lambda inp, t=tenant: service.suggest(t, inp),
                    lambda fb, t=tenant: service.observe(t, fb),
                    dbs[tenant], step, metrics[tenant])
                hosted[tenant].append(config)
        assert len(service.live_tenants()) <= 3
        for i, tenant in enumerate(tenants):
            isolated, _ = _drive(OnlineTune(case_study_space(), seed=i),
                                 _build_db(seed=i), 0, self.STEPS, {})
            assert hosted[tenant] == isolated, f"{tenant} diverged"

    def test_unknown_tenant_rejected(self, tmp_path):
        service = TuningService(tmp_path)
        with pytest.raises(KeyError):
            service.checkpoint("ghost")

    def test_duplicate_create_rejected(self, tmp_path):
        service = TuningService(tmp_path)
        service.create("a", TenantSpec(space="case_study"))
        with pytest.raises(ValueError):
            service.create("a", TenantSpec(space="case_study"))

    def test_resume_discards_unpersisted_progress(self, tmp_path):
        service = TuningService(tmp_path, max_live_sessions=4)
        service.create("a", TenantSpec(space="case_study", seed=3))
        db = _build_db(seed=3)
        metrics = {}
        for t in range(4):
            _, metrics = _step(lambda i: service.suggest("a", i),
                               lambda f: service.observe("a", f),
                               db, t, metrics)
        service.checkpoint("a")
        inp = SuggestInput(iteration=4, snapshot=db.observe_snapshot(4),
                           metrics=metrics,
                           default_performance=db.default_performance(4),
                           is_olap=db.profile(4).is_olap)
        first = service.suggest("a", inp)
        service.resume("a")                 # crash: back to the checkpoint
        again = service.suggest("a", inp)
        assert first == again

    def test_step_batch_matches_runner_and_persists(self, tmp_path):
        """Tenants created at their instances' configuration and stepped
        together through ``step_batch`` reproduce the harness runner's
        sessions of the same specs, are durable, and feed the knowledge
        base when closed."""
        specs = {f"ot-{seed}": SessionSpec(
            tuner="OnlineTune", workload="tpcc", seed=seed, n_iterations=5,
            space="case_study", offset_seed=False) for seed in (7, 8)}
        reference = ParallelRunner(max_workers=1).run(list(specs.values()))
        service = TuningService(tmp_path)
        instances = {}
        for tenant, spec in specs.items():
            db = build_session_from_spec(spec).db
            service.create(tenant, TenantSpec(
                space=spec.space, seed=spec.seed,
                initial_config=db.reference_config))
            instances[tenant] = db
        trace = step_together(service, instances, 5)
        for (tenant, got), want in zip(trace.items(), reference):
            assert [perf for _, perf in got] == \
                [record.performance for record in want.records]
            path = service.close(tenant)
            assert read_metadata(path)["n_observations"] == 5
        # every batch tenant is durable and resumable
        for tenant in specs:
            payload, meta = service.store.load_latest(tenant)
            assert meta["tuner_class"] == payload.__class__.__name__
            assert len(service.resume(tenant).repo) == 5
        assert {e.tenant for e in service.knowledge.entries} == set(specs)


class TestKnowledgeBase:
    def _tuner_with_contexts(self, level: float, seed: int) -> OnlineTune:
        tuner = _build_tuner(seed=seed)
        dim = tuner.featurizer.dim
        rng = np.random.default_rng(seed)
        obs = [Observation(iteration=t, context=np.full(dim, level),
                           config_vec=rng.random(tuner.space.dim),
                           performance=100.0 + t, default_performance=100.0)
               for t in range(6)]
        tuner.seed_observations(obs)
        return tuner

    def test_register_nearest_and_warm_start(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.json")
        low = self._tuner_with_contexts(0.1, seed=1)
        high = self._tuner_with_contexts(0.9, seed=2)
        kb.register("low", low, low.checkpoint(tmp_path / "low.ckpt"))
        kb.register("high", high, high.checkpoint(tmp_path / "high.ckpt"))
        assert len(kb) == 2

        dim = low.featurizer.dim
        probe = np.full(dim, 0.15)
        found = kb.nearest(probe, k=1)
        assert [e.tenant for e in found] == ["low"]

        fresh = _build_tuner(seed=3)
        seeded = kb.warm_start(fresh, probe, k=1, max_observations=4)
        assert seeded == 4 and len(fresh.repo) == 4
        # seeds came from the "low" neighbor
        assert np.allclose(fresh.repo.contexts(), 0.1)
        # seeded iterations are stamped negative (transferred history)
        assert all(fresh.repo[i].iteration < 0 for i in range(4))

    def test_signature_and_persistence(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.json")
        tuner = self._tuner_with_contexts(0.5, seed=4)
        assert np.allclose(repository_signature(tuner.repo), 0.5)
        kb.register("t", tuner, tuner.checkpoint(tmp_path / "t.ckpt"))
        reloaded = KnowledgeBase(tmp_path / "kb.json")
        assert [e.tenant for e in reloaded.entries] == ["t"]

    def test_warm_start_requires_fresh_tuner(self, tmp_path):
        tuner = self._tuner_with_contexts(0.5, seed=5)
        with pytest.raises(RuntimeError):
            tuner.seed_observations([])

    def test_warm_start_stamps_distance_weights(self, tmp_path):
        """Seeded observations are marked transferred and weighted by
        their donor's signature distance: identical-signature donors seed
        at full weight, distant donors at strictly less."""
        kb = KnowledgeBase(tmp_path / "kb.json")
        near = self._tuner_with_contexts(0.2, seed=1)
        far = self._tuner_with_contexts(0.9, seed=2)
        kb.register("near", near, near.checkpoint(tmp_path / "n.ckpt"))
        kb.register("far", far, far.checkpoint(tmp_path / "f.ckpt"))
        fresh = _build_tuner(seed=3)
        probe = np.full(fresh.featurizer.dim, 0.2)
        seeded = kb.warm_start(fresh, probe, k=2, max_observations=8)
        assert seeded == 8
        assert fresh.repo.transferred_flags().all()
        weights = fresh.repo.weights()
        contexts = fresh.repo.contexts()
        near_w = weights[np.isclose(contexts[:, 0], 0.2)]
        far_w = weights[np.isclose(contexts[:, 0], 0.9)]
        assert len(near_w) and len(far_w)
        assert np.allclose(near_w, 1.0)          # zero-distance donor
        assert np.all(far_w < near_w.min())      # distant donor muted
        assert fresh.repo.n_native == 0          # nothing native yet


class TestReviewRegressions:
    """Regressions from the pre-merge review."""

    def test_step_batch_supersedes_stale_live_session(self, tmp_path):
        """A tenant still hydrated on frontend A after A's lease lapsed
        must not shadow the intervals frontend B stepped in the meantime:
        A's next mutating call drops its stale copy with
        ``LeaseLostError`` instead of writing over B's state, and the call
        after that operates on (and re-persists) B's state."""
        db = build_reference_db(7)
        spec = TenantSpec(space="case_study", seed=7,
                          initial_config=db.reference_config)
        a = TuningService(tmp_path, owner="fe-A")
        a.create("t1", spec)
        # fe-A stops heartbeating: its lease lapses
        lease = a._live["t1"].lease
        past = time.time() - 2 * lease.ttl
        os.utime(lease.path, (past, past))
        lease.expires_at = past + lease.ttl
        b = TuningService(tmp_path, owner="fe-B")
        step_together(b, {"t1": db}, 5)
        b.close("t1", register_knowledge=False)
        with pytest.raises(LeaseLostError):
            a.checkpoint("t1")
        path = a.checkpoint("t1")
        assert read_metadata(path)["n_observations"] == 5

    def test_clean_eviction_writes_no_checkpoint(self, tmp_path):
        service = TuningService(tmp_path, max_live_sessions=1)
        service.create("a", TenantSpec(space="case_study"))
        service.create("b", TenantSpec(space="case_study"))   # evicts clean "a"
        assert len(service.store.list("a")) == 1
        # a dirty session still persists on eviction
        db = _build_db(seed=0)
        _step(lambda i: service.suggest("a", i),
              lambda f: service.observe("a", f), db, 0, {})
        service.create("c", TenantSpec(space="case_study"))   # evicts dirty "a"
        assert len(service.store.list("a")) == 2

    def test_warm_start_survives_pruned_donor_checkpoints(self, tmp_path):
        # the transfer payload is embedded in the index: pruning or
        # relocating donor checkpoints cannot degrade tenant creation
        kb = KnowledgeBase(tmp_path / "kb.json")
        maker = TestKnowledgeBase()
        near = maker._tuner_with_contexts(0.2, seed=1)
        near_path = near.checkpoint(tmp_path / "near.ckpt")
        kb.register("near", near, near_path)
        Path(near_path).unlink()               # prune the donor checkpoint
        fresh = _build_tuner(seed=3)
        probe = np.full(fresh.featurizer.dim, 0.2)
        seeded = kb.warm_start(fresh, probe, k=1, max_observations=4)
        assert seeded == 4
        assert np.allclose(fresh.repo.contexts(), 0.2)

    def test_warm_start_seeds_best_last(self, tmp_path):
        # the repository tail drives the first-suggest regression guard,
        # so the best transferred observation must be seeded last
        kb = KnowledgeBase(tmp_path / "kb.json")
        maker = TestKnowledgeBase()
        donor = maker._tuner_with_contexts(0.5, seed=4)
        kb.register("donor", donor, donor.checkpoint(tmp_path / "d.ckpt"))
        fresh = _build_tuner(seed=5)
        probe = np.full(fresh.featurizer.dim, 0.5)
        seeded = kb.warm_start(fresh, probe, k=1, max_observations=5)
        improvements = [fresh.repo.improvement_at(i) for i in range(seeded)]
        assert improvements == sorted(improvements)
        assert fresh.repo[-1].safe

    def test_checkpoint_every_counts_completed_intervals(self, tmp_path):
        # cadence is per observe (completed interval), not per API call
        service = TuningService(tmp_path, max_live_sessions=2,
                                checkpoint_every=2)
        service.create("a", TenantSpec(space="case_study", seed=1))
        db = _build_db(seed=1)
        metrics = {}
        for t in range(4):
            _, metrics = _step(lambda i: service.suggest("a", i),
                               lambda f: service.observe("a", f),
                               db, t, metrics)
        # birth checkpoint + one auto-checkpoint per 2 observed intervals
        assert len(service.store.list("a")) == 3


class TestDemo:
    def test_demo_steps_safe_tenants_into_the_knowledge_base(
            self, tmp_path, capsys):
        """``repro-service demo`` at a small size exits 0, closes both
        coalesced-round tenants into the knowledge base, and no tenant
        (step 1's or step 2's) is unsafe on every interval: each starts
        at its instance's configuration, where τ is measured."""
        from repro.service import cli
        assert cli.main(["demo", "--tenants", "2", "--iterations", "8",
                         "--root", str(tmp_path)]) == 0
        assert len(KnowledgeBase(tmp_path / "knowledge.json")) == 2
        unsafe = [int(n) for n in
                  re.findall(r"#unsafe=(\d+)", capsys.readouterr().out)]
        assert len(unsafe) == 3              # two step-1 tenants + step 2
        assert all(n < 8 for n in unsafe), unsafe
