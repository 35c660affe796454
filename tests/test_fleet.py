"""Fleet-scale serving tests.

Covers the fleet pieces as one story: a tenant population split across
frontends by stride, each frontend stepping its slice together through
``step_batch`` (the union of the slices must equal one unsharded
frontend's run), a client SDK that follows lease ownership across the
fleet instead of erroring out, and the idle-time janitor that compacts
delta chains off the suggest/observe hot path, sharded so N frontends'
janitors sweep disjoint slices of one store.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.service import (
    FailoverExhaustedError,
    Janitor,
    LeaseHeldError,
    LeaseManager,
    ServiceClient,
    TenantSpec,
    TuningService,
)
from repro.service.service import JANITOR_BACKSTOP_FACTOR

from service_utils import (
    build_db,
    build_reference_db,
    build_tuner,
    drive_service,
    drive_tuner,
    step,
    step_together,
)

N_TENANTS = 5
ITERS = 4


def _serve_slice(frontend: TuningService, tenants) -> dict:
    """Create each tenant ``t<seed>`` at its seeded instance's
    configuration, step the slice together for ``ITERS`` intervals and
    close it; returns each tenant's ``(config, performance)`` trace."""
    instances = {tenant: build_reference_db(int(tenant[1:]))
                 for tenant in tenants}
    for tenant, db in instances.items():
        frontend.create(tenant, TenantSpec(
            space="case_study", seed=int(tenant[1:]),
            initial_config=db.reference_config))
    trace = step_together(frontend, instances, ITERS)
    for tenant in tenants:
        frontend.close(tenant, register_knowledge=False)
    return trace


class TestShardedRunBatch:
    """Frontend i of k serves ``tenants[i::k]``, the slice ``serve
    --shard-index i --shard-count k`` hands its janitor."""

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_union_of_shards_equals_unsharded(self, tmp_path, shard_count):
        tenants = [f"t{i}" for i in range(N_TENANTS)]
        base = _serve_slice(TuningService(tmp_path / "unsharded"), tenants)
        merged = {}
        for index in range(shard_count):
            frontend = TuningService(tmp_path / f"shard{index}")
            shard = tenants[index::shard_count]
            merged.update(_serve_slice(frontend, shard))
            # each frontend persisted exactly its own slice
            assert frontend.store.tenants() == sorted(shard)
        # fused rounds over any slice step each tenant bit-identically
        assert json.dumps(merged, sort_keys=True) == \
            json.dumps(base, sort_keys=True)

    def test_sharded_checkpoints_are_resumable(self, tmp_path):
        shard = [f"t{i}" for i in range(N_TENANTS)][1::2]
        _serve_slice(TuningService(tmp_path), shard)
        other = TuningService(tmp_path)
        for tenant in shard:
            payload, meta = other.store.load_latest(tenant)
            assert meta["tuner_class"] == payload.__class__.__name__
            assert meta["n_observations"] == ITERS
            assert len(other.resume(tenant).repo) == ITERS

    def test_bad_shard_coordinates_rejected(self, capsys):
        """``serve`` refuses a shard index outside ``[0, shard-count)``
        before it starts: its janitor would wrap onto another
        frontend's slice and leave this one unswept."""
        from repro.service import cli
        with pytest.raises(SystemExit) as info:
            cli.main(["serve", "--shard-index", "2", "--shard-count", "2"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--shard-index must be in [0, --shard-count)" in err


class TestClientFailover:
    TTL = 5.0

    def _fleet(self, root, **kwargs):
        a = TuningService(root, owner="fe-A", lease_ttl=self.TTL, **kwargs)
        b = TuningService(root, owner="fe-B", lease_ttl=self.TTL, **kwargs)
        return a, b

    def test_redirect_to_lease_holder(self, tmp_path):
        a, b = self._fleet(tmp_path)
        sleeps = []
        served = ServiceClient([a, b], sleep=sleeps.append, seed=0)
        served.create("t", TenantSpec(space="case_study", seed=3))
        db = build_db(3)
        _, metrics = step(lambda i: served.suggest("t", i),
                          lambda f: served.observe("t", f), db, 0, {})
        assert served.redirects == 0        # first frontend just worked

        # a second client defaults to the *other* frontend: its first
        # call conflicts with fe-A's live lease and must redirect there
        other = ServiceClient([b, a], sleep=sleeps.append, seed=0)
        _, _ = step(lambda i: other.suggest("t", i),
                    lambda f: other.observe("t", f), db, 1, metrics)
        assert other.redirects >= 1
        # affinity: later calls go straight to the holder, no new redirects
        redirects = other.redirects
        ckpt = other.checkpoint("t")
        assert ckpt.exists()
        assert other.redirects == redirects

    def test_stolen_lease_failover_is_bit_identical(self, tmp_path):
        """fe-A dies mid-session; fe-B takes over; the original client
        follows the lease to fe-B and the trajectory stays exactly the
        uninterrupted one (delta durability replays the chain)."""
        ttl = 0.3
        a = TuningService(tmp_path, owner="fe-A", lease_ttl=ttl,
                          durability="delta", snapshot_every=100)
        b = TuningService(tmp_path, owner="fe-B", lease_ttl=ttl,
                          durability="delta", snapshot_every=100)
        seed, total, crash_at = 3, 8, 4
        baseline, history = drive_tuner(build_tuner(seed), build_db(seed),
                                        0, total)

        client = ServiceClient([a, b], sleep=time.sleep, seed=0)
        client.create("t", TenantSpec(space="case_study", seed=seed))
        db = build_db(seed)
        configs, history2 = drive_service(client, "t", db, 0, crash_at)
        assert configs == baseline[:crash_at]

        time.sleep(ttl + 0.05)              # fe-A goes silent past its TTL
        takeover = ServiceClient([b], sleep=time.sleep, seed=0)
        mid, _ = drive_service(takeover, "t", db, crash_at, crash_at + 2,
                               history2)
        assert mid == baseline[crash_at:crash_at + 2]

        # the original client still routes via fe-A: lost lease there,
        # then a redirect to the new holder fe-B
        suffix, _ = drive_service(client, "t", db, crash_at + 2, total,
                                  history2)
        assert suffix == baseline[crash_at + 2:]
        assert client.redirects >= 1

    def test_unknown_holder_budget_exhaustion(self, tmp_path):
        """A lease held by someone outside the fleet (e.g. a janitor) is
        waited out with jittered backoff; a budget's worth of retries
        later the typed failover error surfaces with the cause chained."""
        a, b = self._fleet(tmp_path)
        a.create("t", TenantSpec(space="case_study", seed=0))
        a.close("t")
        foreign = LeaseManager(tmp_path / "leases", ttl=60.0, owner="intruder")
        foreign.acquire("t")
        sleeps = []
        client = ServiceClient([a, b], max_failovers=3, sleep=sleeps.append,
                               seed=7, backoff_base=0.02, backoff_cap=0.1)
        with pytest.raises(FailoverExhaustedError) as info:
            client.resume("t")
        assert info.value.attempts == 4          # initial try + 3 retries
        assert isinstance(info.value.__cause__, LeaseHeldError)
        assert info.value.__cause__.holder == "intruder"
        # full-jitter backoff: one sleep per retry, each under the cap
        assert len(sleeps) == 3
        assert all(0.0 <= s <= 0.1 for s in sleeps)
        # distinct draws (jitter, not a fixed delay)
        assert len(set(sleeps)) > 1

    def test_waits_out_short_foreign_lease(self, tmp_path):
        """A short-lived foreign lease (janitor mid-compaction) costs
        retries, not an error: once it expires the call goes through."""
        a, b = self._fleet(tmp_path)
        a.create("t", TenantSpec(space="case_study", seed=0))
        a.close("t")
        foreign = LeaseManager(tmp_path / "leases", ttl=0.15, owner="janitor-x")
        foreign.acquire("t")
        client = ServiceClient([a, b], max_failovers=8, sleep=time.sleep,
                               backoff_base=0.05, backoff_cap=0.2, seed=1)
        tuner = client.resume("t")              # blocks briefly, then wins
        assert len(tuner.repo) == 0
        assert client.retries >= 1 and client.redirects == 0

    def test_client_requires_distinct_owners(self, tmp_path):
        a = TuningService(tmp_path / "a", owner="same")
        b = TuningService(tmp_path / "b", owner="same")
        with pytest.raises(ValueError, match="distinct"):
            ServiceClient([a, b])


class TestJanitor:
    def _delta_service(self, root, **kwargs):
        kwargs.setdefault("durability", "delta")
        kwargs.setdefault("snapshot_every", 4)
        kwargs.setdefault("compaction", "janitor")
        kwargs.setdefault("lease_ttl", 5.0)
        return TuningService(root, **kwargs)

    def test_observe_never_snapshots_under_janitor_mode(self, tmp_path):
        """The hot path pays only delta appends: snapshot count stays at
        the birth checkpoint while the chain grows past snapshot_every."""
        service = self._delta_service(tmp_path)
        service.create("t", TenantSpec(space="case_study", seed=1))
        db = build_db(1)
        drive_service(service, "t", db, 0, 6)
        assert len(service.store.list("t")) == 1          # birth only
        assert service.store.chain_length("t") == 6
        # inline mode would have compacted at snapshot_every=4
        inline = TuningService(tmp_path / "inline", durability="delta",
                               snapshot_every=4)
        inline.create("t", TenantSpec(space="case_study", seed=1))
        drive_service(inline, "t", build_db(1), 0, 6)
        assert len(inline.store.list("t")) == 2

    def test_compact_if_due_compacts_live_session(self, tmp_path):
        service = self._delta_service(tmp_path)
        service.create("t", TenantSpec(space="case_study", seed=1))
        drive_service(service, "t", build_db(1), 0, 6)
        assert service.compact_if_due("t") is not None
        assert len(service.store.list("t")) == 2
        assert service.store.chain_length("t") == 0
        assert service.compact_if_due("t") is None        # nothing due now

    def test_backstop_bounds_runaway_chain(self, tmp_path):
        """With the janitor down, observe still compacts once the chain
        hits snapshot_every * JANITOR_BACKSTOP_FACTOR."""
        service = self._delta_service(tmp_path, snapshot_every=1)
        service.create("t", TenantSpec(space="case_study", seed=1))
        limit = JANITOR_BACKSTOP_FACTOR          # snapshot_every == 1
        drive_service(service, "t", build_db(1), 0, limit)
        assert len(service.store.list("t")) == 2          # backstop fired
        assert service.store.chain_length("t") == 0

    def test_janitor_skips_live_tenants(self, tmp_path):
        service = self._delta_service(tmp_path)
        service.create("t", TenantSpec(space="case_study", seed=1))
        drive_service(service, "t", build_db(1), 0, 5)
        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0)
        report = janitor.run_once()
        assert report.compacted == [] and report.skipped_leased == ["t"]
        assert service.store.chain_length("t") == 5       # untouched

    def test_janitor_compacts_evicted_tenant_bit_identically(self, tmp_path):
        """Eviction releases the lease but leaves the chain; the janitor
        replays and compacts it, and the rehydrated tenant continues on
        exactly the uninterrupted trajectory."""
        seed, total, evict_at = 2, 8, 5
        baseline, history = drive_tuner(build_tuner(seed), build_db(seed),
                                        0, total)
        service = self._delta_service(tmp_path, max_live_sessions=1)
        service.create("t", TenantSpec(space="case_study", seed=seed))
        db = build_db(seed)
        configs, _ = drive_service(service, "t", db, 0, evict_at)
        assert configs == baseline[:evict_at]
        service.create("other", TenantSpec(space="case_study", seed=9))
        assert "t" not in service.live_tenants()          # LRU evicted it
        assert service.store.chain_length("t") == evict_at

        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0)
        report = janitor.run_once()
        assert "t" in report.compacted
        assert service.store.chain_length("t") == 0
        meta = service.store.metadata("t")[-1]
        assert meta["n_observations"] == evict_at
        assert meta["compacted_by"] == janitor.leases.owner

        suffix, _ = drive_service(service, "t", db, evict_at, total, history)
        assert suffix == baseline[evict_at:]

    def test_janitor_prunes_old_restore_points(self, tmp_path):
        service = TuningService(tmp_path, durability="snapshot")
        service.create("t", TenantSpec(space="case_study", seed=1))
        for _ in range(4):
            service.checkpoint("t")
        service.close("t")
        assert len(service.store.list("t")) == 5
        janitor = Janitor(tmp_path, prune_keep=2, lease_ttl=5.0)
        report = janitor.run_once()
        assert report.pruned["t"] == 3
        assert len(service.store.list("t")) == 2
        assert service.resume("t") is not None            # still loadable

    def test_janitor_recheck_under_lease_avoids_double_compaction(
            self, tmp_path):
        """Between the lock-free probe and winning the lease, a frontend
        may already have compacted; the janitor must notice and not
        write a redundant snapshot."""
        service = self._delta_service(tmp_path)
        service.create("t", TenantSpec(space="case_study", seed=1))
        drive_service(service, "t", build_db(1), 0, 5)
        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0)
        original = janitor.store.chain_length

        def racing_probe(tenant_id):
            length = original(tenant_id)
            if service.live_tenants():      # only race the first probe
                service.compact_if_due(tenant_id)
                service.close(tenant_id, register_knowledge=False)
            return length

        janitor.store.chain_length = racing_probe
        report = janitor.run_once()
        assert report.compacted == []
        janitor.store.chain_length = original
        # exactly two snapshots: birth + the frontend's compaction
        assert len(service.store.list("t")) == 2

    def test_background_cadence_compacts_idle_tenant(self, tmp_path):
        service = self._delta_service(tmp_path, max_live_sessions=1)
        service.create("t", TenantSpec(space="case_study", seed=1))
        drive_service(service, "t", build_db(1), 0, 5)
        service.create("other", TenantSpec(space="case_study", seed=9))
        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0,
                          interval=0.05)
        janitor.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                janitor.start()
            deadline = time.time() + 10.0
            while (service.store.chain_length("t")
                   and time.time() < deadline):
                time.sleep(0.05)
        finally:
            janitor.stop()
        assert service.store.chain_length("t") == 0
        assert janitor._thread is None

    def test_failed_sweep_is_counted_and_cadence_survives(self, tmp_path):
        janitor = Janitor(tmp_path, lease_ttl=5.0, interval=0.01)
        sweep = janitor.run_once
        swept = threading.Event()
        calls = []

        def first_sweep_fails():
            calls.append(None)
            if len(calls) == 1:
                raise OSError("injected sweep fault")
            report = sweep()
            swept.set()
            return report

        janitor.run_once = first_sweep_fails
        janitor.start()
        thread = janitor._thread
        try:
            assert swept.wait(timeout=10.0)
        finally:
            janitor.stop(timeout=5.0)
        assert not thread.is_alive()
        assert janitor.total_failed_sweeps >= 1
        assert janitor.sweeps >= 1


class TestJanitorSharding:
    """N-frontend fleets run N janitors; each owns a disjoint slice of
    the tenant namespace and must never lease-probe outside it."""

    def _idle_population(self, root, n=5, intervals=5):
        """n idle tenants with uncompacted delta chains: the frontend
        crashes (chains + expiring leases left behind) and its TTL
        passes, so every tenant is sweepable."""
        ttl = 0.5
        service = TuningService(root, durability="delta", snapshot_every=4,
                                compaction="janitor", lease_ttl=ttl)
        tenants = [f"t{i}" for i in range(n)]
        for i, tenant in enumerate(tenants):
            service.create(tenant, TenantSpec(space="case_study", seed=i))
            drive_service(service, tenant, build_db(i), 0, intervals)
        service.store.close()        # crash: chains + stale leases left
        time.sleep(ttl + 0.1)        # the dead frontend's TTL passes
        return service, tenants

    def test_out_of_shard_tenants_skipped_and_counted(self, tmp_path):
        service, tenants = self._idle_population(tmp_path)
        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0,
                          shard_index=0, shard_count=2)
        report = janitor.run_once()
        # strided ownership: shard 0 of 2 over 5 sorted tenants owns
        # positions 0, 2, 4 — the other two are skipped, not probed
        assert sorted(report.compacted) == ["t0", "t2", "t4"]
        assert report.skipped_out_of_shard == 2
        assert report.skipped_leased == []
        for tenant in ("t1", "t3"):
            assert service.store.chain_length(tenant) > 0   # untouched

    def test_default_single_shard_sweeps_everything(self, tmp_path):
        _, tenants = self._idle_population(tmp_path, n=3)
        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0)
        report = janitor.run_once()
        assert sorted(report.compacted) == tenants
        assert report.skipped_out_of_shard == 0

    def test_disjoint_janitors_never_cross_probe(self, tmp_path):
        """Two janitors on complementary shards, interleaved sweep by
        sweep: disjoint compaction sets whose union covers the fleet,
        and *zero* lease acquisitions outside each janitor's slice."""
        service, tenants = self._idle_population(tmp_path, n=6)
        janitors = [Janitor(tmp_path, snapshot_every=4, lease_ttl=5.0,
                            owner=f"janitor-{i}", shard_index=i,
                            shard_count=2)
                    for i in range(2)]
        probed = {0: [], 1: []}
        for i, janitor in enumerate(janitors):
            original = janitor.leases.acquire

            def spying_acquire(tenant_id, _i=i, _orig=original):
                probed[_i].append(tenant_id)
                return _orig(tenant_id)

            janitor.leases.acquire = spying_acquire
        # interleave: A sweeps, B sweeps, A again, B again
        reports = [janitors[0].run_once(), janitors[1].run_once(),
                   janitors[0].run_once(), janitors[1].run_once()]
        compacted = {0: set(reports[0].compacted) | set(reports[2].compacted),
                     1: set(reports[1].compacted) | set(reports[3].compacted)}
        assert compacted[0] & compacted[1] == set()
        assert compacted[0] | compacted[1] == set(tenants)
        # the load-bearing claim: neither janitor lease-probed the
        # other's territory, so sharding removed the wasted round-trips
        assert set(probed[0]) == {"t0", "t2", "t4"}
        assert set(probed[1]) == {"t1", "t3", "t5"}
        for janitor in janitors:
            assert janitor.total_cross_shard == 0
            assert janitor.total_skipped_out_of_shard == 6   # 3 x 2 sweeps

    def test_shard_coordinates_outside_range_rejected(self, tmp_path):
        """A wrapped index would sweep another shard's slice twice and
        leave its own unswept, so only ``0 <= index < count`` builds."""
        for index, count in ((2, 2), (5, 3), (-1, 2), (0, 0)):
            with pytest.raises(ValueError, match="shard_index"):
                Janitor(tmp_path, shard_index=index, shard_count=count)
        assert not any(tmp_path.iterdir())   # refused before the store
        janitor = Janitor(tmp_path, shard_index=1, shard_count=2)
        assert (janitor.shard_index, janitor.shard_count) == (1, 2)


class TestReviewRegressions:
    """Regressions from the pre-merge review."""

    def test_concurrent_knowledge_registration_merges(self, tmp_path):
        """Two frontends sharing one knowledge.json must not clobber
        each other's registrations: the index is reloaded and rewritten
        under a lock, so the union survives whichever writes last."""
        from repro.service import KnowledgeBase
        t1 = build_tuner(seed=1)
        t2 = build_tuner(seed=2)
        db = build_db(1)
        drive_tuner(t1, db, 0, 3)
        drive_tuner(t2, build_db(2), 0, 3)
        path = tmp_path / "knowledge.json"
        # both frontends load the (empty) index before either registers
        kb_a = KnowledgeBase(path)
        kb_b = KnowledgeBase(path)
        kb_a.register("alpha", t1, t1.checkpoint(tmp_path / "a.ckpt"))
        kb_b.register("beta", t2, t2.checkpoint(tmp_path / "b.ckpt"))
        reloaded = KnowledgeBase(path)
        assert {e.tenant for e in reloaded.entries} == {"alpha", "beta"}
        # stale lock files from a crashed writer are broken, not fatal
        lock = path.with_name(path.name + ".lock")
        lock.touch()
        os.utime(lock, (time.time() - 60, time.time() - 60))
        kb_a.register("alpha", t1, t1.checkpoint(tmp_path / "a2.ckpt"))
        assert not lock.exists()

    def test_janitor_survives_lease_loss_mid_sweep(self, tmp_path):
        """A sweep that outlives its own lease TTL (takeover mid-
        compaction) must record the tenant as skipped and keep sweeping
        the rest of the fleet — not crash run_once."""
        service = TuningService(tmp_path, durability="delta",
                                snapshot_every=100, compaction="janitor",
                                lease_ttl=5.0)
        for tenant, seed in (("a", 1), ("b", 2)):
            service.create(tenant, TenantSpec(space="case_study", seed=seed))
            drive_service(service, tenant, build_db(seed), 0, 5)
        service.store.close()               # crash: chains + leases left
        # the dead frontend's TTL passes: rewind its lease files rather
        # than sleep, so a suggest slower than the TTL cannot expire a
        # lease while the tenants are still being driven
        past = time.time() - 10.0
        for path in (tmp_path / "leases").glob("*.lease"):
            os.utime(path, (past, past))
        janitor = Janitor(tmp_path, snapshot_every=4, lease_ttl=0.2)
        thief = LeaseManager(tmp_path / "leases", ttl=5.0, owner="thief")
        original = janitor._compact

        def slow_compact(tenant_id, fence):
            if tenant_id == "a":
                time.sleep(0.25)            # outlive the janitor's TTL
                thief.acquire(tenant_id)    # frontend takes the tenant over
            return original(tenant_id, fence)

        janitor._compact = slow_compact
        report = janitor.run_once()
        assert "lease lost" in report.skipped_errors.get("a", "")
        assert "b" in report.compacted      # the sweep carried on
