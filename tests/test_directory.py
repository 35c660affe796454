"""Lease-holder directory: publication, pre-routing, and staleness.

The directory is a tenant→owner *hint* map published through the shared
:class:`CheckpointStore`.  The load-bearing assertions:

* **Publication** — every lease a frontend wins appears in the
  directory; a clean release tombstones it; a release that lost the
  lease does NOT clobber the new owner's entry.
* **Pre-routing** — a cold client that bulk-refreshed the directory
  sends its first hop straight to the owning frontend (zero
  redirects), where a cold client that never refreshed it probes
  frontend 0 first and bounces off ``lease_held``.
* **Staleness is safe** — a wrong directory entry degrades to exactly
  the old probe-and-redirect path: the misdirected frontend answers
  ``lease_held`` with the true holder and the call converges.  The
  directory can therefore never break correctness, only routing cost.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.service import ServiceClient, TenantSpec, TuningService
from repro.service.client import DirectoryCache, FailoverPolicy
from repro.service.lease import LeaseHeldError
from repro.service.store import (
    DIRECTORY_COMPACT_FACTOR,
    DIRECTORY_SHARDS,
    CheckpointStore,
)
from repro.service.transport import AsyncServiceClient, RemoteFrontend

from service_utils import (
    build_db,
    build_reference_db,
    drive_service,
    step,
    step_together,
)
from test_transport import SPEC, ServerThread


# ---------------------------------------------------------------------------
# store layer: the append-only sidecar
# ---------------------------------------------------------------------------

class TestStoreDirectory:
    def test_publish_read_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.publish_owner("alpha", "fe-1")
        store.publish_owner("beta", "fe-2")
        assert store.read_owners() == {"alpha": "fe-1", "beta": "fe-2"}

    def test_last_record_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.publish_owner("t", "fe-1")
        store.publish_owner("t", "fe-2")
        assert store.read_owners() == {"t": "fe-2"}

    def test_tombstone_clears_entry(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.publish_owner("t", "fe-1")
        store.publish_owner("t", None)
        assert store.read_owners() == {}

    def test_tenant_namespace_hashes_across_sidecars(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(64):
            store.publish_owner(f"tenant-{i:03d}", "fe-0")
        files = list((tmp_path / "directory").glob("owners-*.jsonl"))
        # 64 tenants over 8 hash shards: overwhelmingly > 1 file
        assert 1 < len(files) <= DIRECTORY_SHARDS
        assert len(store.read_owners()) == 64

    def test_compaction_folds_churn_and_drops_tombstones(self, tmp_path):
        store = CheckpointStore(tmp_path)
        # churn one tenant's entry well past the compaction threshold
        for i in range(4 * DIRECTORY_COMPACT_FACTOR):
            store.publish_owner("t", f"fe-{i % 3}")
        store.publish_owner("gone", "fe-9")
        store.publish_owner("gone", None)
        # enough appends that some sidecar compacted: every file is now
        # short, and correctness held throughout
        for path in (tmp_path / "directory").glob("owners-*.jsonl"):
            n_lines = len(path.read_text().splitlines())
            assert n_lines <= 2 * DIRECTORY_COMPACT_FACTOR
        owners = store.read_owners()
        assert owners["t"] == f"fe-{(4 * DIRECTORY_COMPACT_FACTOR - 1) % 3}"
        assert "gone" not in owners

    def test_torn_line_is_skipped_not_fatal(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.publish_owner("t", "fe-1")
        path = store._directory_path("t")
        with path.open("a") as fh:
            fh.write('{"t": "half')          # crash mid-append
        store.publish_owner("u", "fe-2")     # appends after the torn line
        owners = store.read_owners()
        assert owners["t"] == "fe-1"
        # the record *after* the torn line survives if it hashed to the
        # same sidecar (torn line is line-isolated, not file-fatal)
        assert owners.get("u", "fe-2") == "fe-2"

    def test_publish_never_raises_on_unwritable_directory(self, tmp_path):
        store = CheckpointStore(tmp_path)
        # a plain *file* where the directory dir should be: every mkdir
        # and append fails with OSError — publish must swallow it
        (tmp_path / "directory").write_text("roadblock")
        store.publish_owner("t", "fe-1")     # must not raise
        assert store.read_owners() == {}

    def test_publish_validates_tenant_id(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="invalid tenant id"):
            store.publish_owner("../escape", "fe-1")


# ---------------------------------------------------------------------------
# service layer: lease transitions publish
# ---------------------------------------------------------------------------

class TestServicePublishes:
    def test_create_publishes_and_close_tombstones(self, tmp_path):
        service = TuningService(tmp_path, owner="fe-A")
        service.create("t", TenantSpec(space="case_study", seed=1))
        assert service.directory() == {"t": "fe-A"}
        service.close("t", register_knowledge=False)
        assert service.directory() == {}

    def test_step_batch_publishes_then_tombstones(self, tmp_path):
        """Tenants stepped together through ``step_batch`` stay
        published under this frontend for the whole batch; closing them
        tombstones every entry."""
        service = TuningService(tmp_path, owner="fe-A")
        instances = {f"t{seed}": build_reference_db(seed) for seed in (0, 1)}
        for seed, (tenant, db) in enumerate(instances.items()):
            service.create(tenant, TenantSpec(
                space="case_study", seed=seed,
                initial_config=db.reference_config))
        step_together(service, instances, 2)
        assert service.directory() == {"t0": "fe-A", "t1": "fe-A"}
        for tenant in instances:
            service.close(tenant, register_knowledge=False)
        assert service.directory() == {}

    def test_takeover_entry_not_clobbered_by_stale_release(self, tmp_path):
        """fe-A's lease expires, fe-B takes the tenant over; fe-A's late
        close must not tombstone fe-B's directory entry."""
        ttl = 0.3
        a = TuningService(tmp_path, owner="fe-A", lease_ttl=ttl,
                          durability="delta")
        b = TuningService(tmp_path, owner="fe-B", lease_ttl=5.0,
                          durability="delta")
        a.create("t", TenantSpec(space="case_study", seed=1))
        assert a.directory() == {"t": "fe-A"}
        stale_session = a._live["t"]
        time.sleep(ttl + 0.05)               # fe-A goes silent past TTL
        b.resume("t")
        assert b.directory() == {"t": "fe-B"}
        # fe-A's late release hits LeaseLostError — and must NOT publish
        # a tombstone over fe-B's entry
        a._release_lease(stale_session)
        assert b.directory() == {"t": "fe-B"}    # entry survived


# ---------------------------------------------------------------------------
# sans-I/O cache + sync client pre-routing
# ---------------------------------------------------------------------------

class TestDirectoryCache:
    def test_record_lookup_invalidate(self):
        cache = DirectoryCache()
        cache.record("t", "fe-1")
        assert cache.lookup("t") == "fe-1"
        cache.record("t", None)              # None clears
        assert cache.lookup("t") is None
        cache.record("t", "fe-2")
        cache.invalidate("t")
        assert cache.lookup("t") is None and len(cache) == 0

    def test_bulk_update_merges(self):
        cache = DirectoryCache()
        cache.record("a", "fe-1")
        assert cache.update({"b": "fe-2", "a": "fe-3"}) == 2
        assert cache.lookup("a") == "fe-3" and cache.lookup("b") == "fe-2"

    def test_lease_held_feeds_the_policy_cache(self):
        policy = FailoverPolicy(max_failovers=3, seed=0)
        state = policy.begin("t", "suggest")
        state.on_error(LeaseHeldError("held", holder="fe-7"))
        assert policy.directory.lookup("t") == "fe-7"


class TestSyncClientPreRouting:
    def _fleet(self, root):
        a = TuningService(root, owner="fe-A", lease_ttl=5.0)
        b = TuningService(root, owner="fe-B", lease_ttl=5.0)
        return a, b

    def _provision(self, frontend, tenant="t", seed=3):
        frontend.create(tenant, TenantSpec(space="case_study", seed=seed))

    def test_cold_client_pre_routes_via_directory(self, tmp_path):
        a, b = self._fleet(tmp_path)
        self._provision(a)                   # lease (and entry) on fe-A
        # fresh client whose *first* frontend is fe-B: probe-first would
        # bounce; the directory sends the first hop straight to fe-A
        client = ServiceClient([b, a], sleep=lambda s: None, seed=0)
        assert client.refresh_directory() == 1
        db = build_db(3)
        step(lambda i: client.suggest("t", i),
             lambda f: client.observe("t", f), db, 0, {})
        assert client.redirects == 0
        assert client.first_hop_misses == 0
        assert client.first_hop_hits >= 1

    def test_probe_first_control_bounces(self, tmp_path):
        a, b = self._fleet(tmp_path)
        self._provision(a)
        # never refreshed: its first hop probes fe-B, the first frontend
        control = ServiceClient([b, a], sleep=lambda s: None, seed=0)
        assert len(control.policy.directory) == 0
        db = build_db(3)
        step(lambda i: control.suggest("t", i),
             lambda f: control.observe("t", f), db, 0, {})
        assert control.redirects >= 1
        assert control.first_hop_misses >= 1

    def test_stale_directory_converges_via_redirect(self, tmp_path):
        """Acceptance: a *wrong* directory entry must degrade to the
        probe path, not break the call.  fe-A holds the lease but the
        directory claims fe-B; the misdirected first hop bounces off
        ``lease_held`` naming fe-A, and the call lands there."""
        a, b = self._fleet(tmp_path)
        self._provision(a)
        a.store.publish_owner("t", "fe-B")   # poison the hint
        client = ServiceClient([a, b], sleep=lambda s: None, seed=0)
        client.refresh_directory()
        assert client.policy.directory.lookup("t") == "fe-B"
        db = build_db(3)
        config, _ = step(lambda i: client.suggest("t", i),
                         lambda f: client.observe("t", f), db, 0, {})
        assert isinstance(config, dict)      # the call converged
        assert client.redirects >= 1         # ... via the redirect path
        # and the bounce repaired the cache with the true holder
        assert client.policy.directory.lookup("t") == "fe-A"

    def test_trajectory_identical_with_and_without_directory(self, tmp_path):
        """Routing is invisible to the tuning math: the pre-routed
        trajectory is bit-identical to the one a cold client that never
        refreshed the directory produces by probing."""
        n = 4
        a1, b1 = self._fleet(tmp_path / "probe")
        self._provision(a1)
        probe = ServiceClient([b1, a1], sleep=lambda s: None, seed=0)
        probe_configs, _ = drive_service(probe, "t", build_db(3), 0, n)

        a2, b2 = self._fleet(tmp_path / "routed")
        self._provision(a2)
        routed = ServiceClient([b2, a2], sleep=lambda s: None, seed=0)
        routed.refresh_directory()
        routed_configs, _ = drive_service(routed, "t", build_db(3), 0, n)

        assert json.dumps(routed_configs) == json.dumps(probe_configs)
        assert routed.redirects == 0 and probe.redirects >= 1


# ---------------------------------------------------------------------------
# wire layer: the directory op + async pre-routing
# ---------------------------------------------------------------------------

class TestWireDirectory:
    def test_remote_frontend_directory_op(self, tmp_path):
        st = ServerThread(tmp_path)
        try:
            frontend = RemoteFrontend(*st.address)
            assert frontend.directory() == {}
            frontend.create("t", SPEC)
            owners = frontend.directory()
            assert owners == {"t": st.service.leases.owner}
            status = frontend.status()
            assert status["shard_index"] == 0
            assert status["shard_count"] == 1
            frontend.disconnect()
        finally:
            st.stop()

    def test_async_two_frontend_pre_routing(self, tmp_path):
        """Two wire frontends over one store.  Tenants provisioned
        round-robin; a cold directory-refreshed client never redirects,
        a cold client that never refreshed it must."""
        from repro.service.transport.server import TuningServer

        async def scenario():
            servers = []
            for i in range(2):
                service = TuningService(tmp_path, owner=f"fe-{i}",
                                        durability="delta")
                server = TuningServer(service, port=0,
                                      shard_index=i, shard_count=2)
                await server.start()
                servers.append(server)
            addresses = [s.address for s in servers]
            owners = [s.service.leases.owner for s in servers]
            tenants = [f"t{i}" for i in range(4)]

            setup = AsyncServiceClient(addresses, seed=0)
            await setup.connect()
            for i, tenant in enumerate(tenants):
                setup.route_to(tenant, owners[i % 2])
                await setup.create(
                    tenant, TenantSpec(space="case_study", seed=i))
            await setup.aclose()

            inp_db = build_db(0)
            prof = inp_db.profile(0)
            from repro.baselines.base import SuggestInput
            inp = SuggestInput(
                iteration=0, snapshot=inp_db.observe_snapshot(0),
                metrics={},
                default_performance=inp_db.default_performance(0),
                is_olap=prof.is_olap)

            async def drive_cold(refresh):
                client = AsyncServiceClient(addresses, seed=0)
                await client.connect()
                if refresh:
                    assert await client.refresh_directory() == len(tenants)
                for tenant in tenants:
                    await client.suggest(tenant, inp)
                counters = (client.redirects, client.first_hop_hits,
                            client.first_hop_misses)
                await client.aclose()
                return counters

            probe = await drive_cold(refresh=False)
            routed = await drive_cold(refresh=True)
            for server in servers:
                await server.stop()
            return probe, routed

        probe, routed = asyncio.run(scenario())
        probe_redirects, _, probe_misses = probe
        routed_redirects, routed_hits, routed_misses = routed
        # never refreshed: the two tenants owned by fe-1 bounce off fe-0
        assert probe_redirects >= 2 and probe_misses >= 2
        # directory: every first hop lands
        assert routed_redirects == 0 and routed_misses == 0
        assert routed_hits == 4

    def test_async_stale_entry_converges(self, tmp_path):
        """Wire flavor of the stale-directory fault: the hint names the
        wrong frontend, the redirect repairs it."""
        from repro.service.transport.server import TuningServer

        async def scenario():
            servers = []
            for i in range(2):
                service = TuningService(tmp_path, owner=f"fe-{i}",
                                        durability="delta")
                server = TuningServer(service, port=0)
                await server.start()
                servers.append(server)
            addresses = [s.address for s in servers]

            setup = AsyncServiceClient(addresses, seed=0)
            await setup.connect()
            await setup.create("t", SPEC)    # lease lands on fe-0
            await setup.aclose()
            # poison: the directory now claims fe-1
            servers[0].service.store.publish_owner("t", "fe-1")

            client = AsyncServiceClient(addresses, seed=0)
            await client.connect()
            await client.refresh_directory()
            inp_db = build_db(3)
            prof = inp_db.profile(0)
            from repro.baselines.base import SuggestInput
            inp = SuggestInput(
                iteration=0, snapshot=inp_db.observe_snapshot(0),
                metrics={},
                default_performance=inp_db.default_performance(0),
                is_olap=prof.is_olap)
            config = await client.suggest("t", inp)
            counters = (client.redirects,
                        client.policy.directory.lookup("t"))
            await client.aclose()
            for server in servers:
                await server.stop()
            return config, counters

        config, (redirects, cached_owner) = asyncio.run(scenario())
        assert isinstance(config, dict)
        assert redirects >= 1
        assert cached_owner == "fe-0"        # repaired by the bounce
