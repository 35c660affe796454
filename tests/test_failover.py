"""Frontend-death failover: typed errors, dead-owner routing, takeover.

Three layers, one story — a frontend can vanish mid-call and the
client must converge on a survivor without losing the request:

* **Sans-I/O policy** — ``FrontendUnavailableError`` marks the owner
  dead in the :class:`DirectoryCache` and tells the caller to refresh
  the directory from a survivor; a ``lease_held`` redirect naming a
  *dead* holder is a wait (ride out the corpse's TTL), not a redirect.
* **In-process client** — ``ServiceClient`` drops dead affinity,
  re-fetches the directory from a survivor, re-routes under the same
  bounded budget, and rides out a dead holder's lease until the
  survivor's stale takeover wins.
* **Wire stubs** — every socket-level failure (refused connect, reset,
  peer death mid-response) surfaces as the typed error carrying the
  dead frontend's owner identity; raw ``ConnectionError`` never leaks
  into the failover loop.

The slow-marked end-to-end tests SIGKILL a real ``serve`` subprocess
mid-session (run via ``make test-service``).  One asserts a single
tenant's client finishes the trajectory on the survivor.  The other
kills one of two sharded frontends under 12 tenants and asserts zero
lost calls, every orphan taken over by the survivor, and a clean
survivor drain; it prints each orphan's takeover latency.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from typing import Dict

import numpy as np
import pytest

from repro.service import (
    FailoverExhaustedError,
    FrontendUnavailableError,
    ServiceClient,
    TenantSpec,
    TuningService,
)
from repro.service.cli import _run_interval, _suggest_input
from repro.service.client import (
    DEFAULT_BACKOFF_CAP,
    DirectoryCache,
    FailoverPolicy,
)
from repro.service.lease import LeaseHeldError
from repro.service.transport import AsyncServiceClient, RemoteFrontend
from repro.service.transport import protocol

from service_utils import (
    build_db,
    drive,
    read_ready,
    spawn_serve,
    step,
    stop_serve,
)

SPEC = TenantSpec(space="case_study", seed=3)


# ---------------------------------------------------------------------------
# DirectoryCache liveness tracking
# ---------------------------------------------------------------------------

class TestDirectoryCacheDead:
    def test_dead_owner_suppresses_hint_but_keeps_entry(self):
        cache = DirectoryCache()
        cache.record("t", "fe-A")
        assert cache.lookup("t") == "fe-A"
        cache.mark_dead("fe-A")
        assert cache.lookup("t") is None       # never route to a corpse
        assert len(cache) == 1                 # entry survives the mark
        cache.mark_alive("fe-A")
        assert cache.lookup("t") == "fe-A"     # revival restores the hint

    def test_is_dead_and_dead_owners(self):
        cache = DirectoryCache()
        assert not cache.is_dead(None)
        assert not cache.is_dead("fe-A")
        cache.mark_dead("fe-A")
        assert cache.is_dead("fe-A")
        assert cache.dead_owners() == {"fe-A"}
        # defensive copy: mutating the answer must not resurrect anyone
        cache.dead_owners().clear()
        assert cache.is_dead("fe-A")

    def test_bulk_update_does_not_clear_dead_marks(self):
        cache = DirectoryCache()
        cache.mark_dead("fe-A")
        cache.update({"t": "fe-A", "u": "fe-B"})
        assert cache.lookup("t") is None
        assert cache.lookup("u") == "fe-B"


# ---------------------------------------------------------------------------
# FailoverState decisions on death
# ---------------------------------------------------------------------------

class TestFailoverDeathDecisions:
    def test_death_marks_owner_dead_and_requests_refresh(self):
        policy = FailoverPolicy(seed=0)
        policy.directory.record("t", "fe-A")
        state = policy.begin("t", "suggest")
        decision = state.on_error(
            FrontendUnavailableError("reset", owner="fe-A"))
        assert decision.refresh
        assert decision.holder is None
        assert policy.directory.is_dead("fe-A")
        # the tenant's (now useless) hint is dropped, not left to
        # re-route the retry straight back at the corpse
        assert policy.directory.lookup("t") is None

    def test_death_without_owner_still_requests_refresh(self):
        policy = FailoverPolicy(seed=0)
        state = policy.begin("t", "suggest")
        decision = state.on_error(FrontendUnavailableError("refused"))
        assert decision.refresh
        assert policy.directory.dead_owners() == set()

    def test_redirect_to_dead_holder_becomes_a_wait(self):
        policy = FailoverPolicy(seed=0, backoff_cap=0.5)
        policy.directory.mark_dead("fe-A")
        state = policy.begin("t", "suggest")
        decision = state.on_error(LeaseHeldError(
            "held", holder="fe-A", retry_after=0.3))
        assert decision.holder is None         # stay put: holder is a corpse
        assert not decision.refresh
        assert decision.delay >= 0.3           # ride out the remaining TTL
        # the holder is still recorded — once fe-A's lease expires and a
        # survivor takes over, the next lease_held redirect replaces it
        assert policy.directory.is_dead("fe-A")

    def test_dead_holder_wait_is_capped(self):
        policy = FailoverPolicy(seed=0, backoff_cap=0.5)
        policy.directory.mark_dead("fe-A")
        state = policy.begin("t", "suggest")
        decision = state.on_error(LeaseHeldError(
            "held", holder="fe-A", retry_after=3600.0))
        assert decision.delay <= 0.5

    def test_live_holder_redirect_unchanged(self):
        policy = FailoverPolicy(seed=0)
        state = policy.begin("t", "suggest")
        decision = state.on_error(LeaseHeldError(
            "held", holder="fe-B", retry_after=5.0))
        assert decision.holder == "fe-B"
        assert not decision.refresh

    def test_exhaustion_chains_the_death(self):
        policy = FailoverPolicy(max_failovers=1, seed=0)
        state = policy.begin("t", "suggest")
        state.on_error(FrontendUnavailableError("reset", owner="fe-A"))
        with pytest.raises(FailoverExhaustedError) as info:
            state.on_error(FrontendUnavailableError("reset", owner="fe-A"))
        assert isinstance(info.value.__cause__, FrontendUnavailableError)


# ---------------------------------------------------------------------------
# ServiceClient failover across an in-process fleet with a crashing member
# ---------------------------------------------------------------------------

class CrashableFrontend:
    """Wraps a TuningService; once killed every call raises the typed
    death error — the in-process stand-in for a SIGKILLed wire stub."""

    def __init__(self, service: TuningService) -> None:
        self._service = service
        self.leases = service.leases
        self.dead = False

    def kill(self) -> None:
        self.dead = True

    def _guard(self) -> None:
        if self.dead:
            raise FrontendUnavailableError(
                f"frontend {self.leases.owner} unreachable: connection reset",
                owner=self.leases.owner)

    def directory(self):
        self._guard()
        return self._service.directory()

    def __getattr__(self, name):
        method = getattr(self._service, name)
        if not callable(method):
            return method

        def call(*args, **kwargs):
            self._guard()
            return method(*args, **kwargs)

        return call


class TestServiceClientDeathFailover:
    def _fleet(self, root, ttl=5.0):
        a = CrashableFrontend(TuningService(root, owner="fe-A",
                                            lease_ttl=ttl,
                                            durability="delta"))
        b = CrashableFrontend(TuningService(root, owner="fe-B",
                                            lease_ttl=ttl,
                                            durability="delta"))
        return a, b

    def test_fresh_tenant_reroutes_to_survivor(self, tmp_path):
        a, b = self._fleet(tmp_path)
        client = ServiceClient([a, b], sleep=lambda _s: None, seed=0)
        a.kill()
        client.create("t", SPEC)
        db = build_db(3)
        _, _ = step(lambda i: client.suggest("t", i),
                    lambda f: client.observe("t", f), db, 0, {})
        assert client.frontend_deaths >= 1
        assert client.directory_refreshes >= 1
        assert client.policy.directory.is_dead("fe-A")
        # affinity converged on the survivor: no further death hops
        deaths = client.frontend_deaths
        _, _ = step(lambda i: client.suggest("t", i),
                    lambda f: client.observe("t", f), db, 1, {})
        assert client.frontend_deaths == deaths

    def test_mid_session_death_rides_out_lease_and_takes_over(self, tmp_path):
        ttl = 0.4
        a, b = self._fleet(tmp_path, ttl=ttl)
        client = ServiceClient([a, b], sleep=time.sleep, seed=0,
                               max_failovers=16)
        client.create("t", SPEC)
        db = build_db(3)
        _, metrics = step(lambda i: client.suggest("t", i),
                          lambda f: client.observe("t", f), db, 0, {})
        # fe-A now holds the lease and dies without releasing it; the
        # next call must absorb the death, wait out the corpse's TTL on
        # the survivor, and finish after fe-B's stale takeover
        a.kill()
        _, _ = step(lambda i: client.suggest("t", i),
                    lambda f: client.observe("t", f), db, 1, metrics)
        assert client.frontend_deaths >= 1
        assert client.policy.directory.lookup("t") == "fe-B"
        record = b.leases.holder("t")
        assert record is not None and record["owner"] == "fe-B"

    def test_refresh_directory_skips_and_marks_dead(self, tmp_path):
        a, b = self._fleet(tmp_path)
        client = ServiceClient([a, b], sleep=lambda _s: None, seed=0)
        client.create("t", SPEC)
        client.checkpoint("t")
        a.kill()
        assert not client.policy.directory.is_dead("fe-A")
        cached = client.refresh_directory()
        assert cached >= 1                      # the survivor answered
        # the refresh itself discovered the corpse and marked it
        assert client.policy.directory.is_dead("fe-A")

    def test_whole_fleet_dead_exhausts_budget(self, tmp_path):
        a, b = self._fleet(tmp_path)
        client = ServiceClient([a, b], sleep=lambda _s: None, seed=0,
                               max_failovers=3)
        a.kill()
        b.kill()
        with pytest.raises(FailoverExhaustedError) as info:
            client.create("t", SPEC)
        assert isinstance(info.value.__cause__, FrontendUnavailableError)


class TestPrehydrateFailure:
    def test_failed_prehydrate_is_counted_and_lease_error_surfaces(
            self, tmp_path):
        ttl = 10.0
        holder = TuningService(tmp_path, owner="fe-A", lease_ttl=ttl,
                               durability="delta")
        holder.create("t", SPEC)
        # the holder stops heartbeating: its lease lapses within ttl/2,
        # so the bounced frontend warms the chain for a likely takeover
        lease = holder._live["t"].lease
        past = time.time() - 0.8 * ttl
        os.utime(lease.path, (past, past))
        lease.expires_at = past + ttl
        holder.store.latest_path("t").write_bytes(b"not a checkpoint")

        bounced = TuningService(tmp_path, owner="fe-B", lease_ttl=ttl,
                                durability="delta")
        with pytest.raises(LeaseHeldError) as info:
            bounced.resume("t")
        assert info.value.retry_after < 0.5 * ttl
        assert bounced.counters["prehydrate_errors"] == 1
        assert bounced.counters["prehydrated"] == 0


# ---------------------------------------------------------------------------
# wire stubs: socket failures surface as the typed error
# ---------------------------------------------------------------------------

class _DyingServer:
    """Minimal protocol peer: answers ``status`` normally, then snaps.

    After ``die_after`` answered requests every further request gets a
    *truncated* response frame followed by an abrupt close — the exact
    byte pattern a SIGKILLed frontend leaves on the wire mid-response.
    """

    def __init__(self, owner: str = "fe-wire", die_after: int = 1) -> None:
        self.owner = owner
        self.die_after = die_after
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        answered = 0
        with conn:
            while True:
                try:
                    request = protocol.recv_frame(conn)
                except protocol.FrameError:
                    return
                if request is None:
                    return
                response = {"id": request["id"], "status": "ok",
                            "result": {"owner": self.owner}}
                frame = protocol.encode_frame(response)
                if answered >= self.die_after:
                    conn.sendall(frame[:len(frame) // 2])   # torn mid-body
                    return                                  # ...and vanish
                conn.sendall(frame)
                answered += 1

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


class TestWireDeathIsTyped:
    def test_connection_refused_is_typed(self):
        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()                           # nobody listens here now
        with pytest.raises(FrontendUnavailableError) as info:
            RemoteFrontend(host, port, timeout=2.0)
        assert info.value.owner is None         # died before identity known

    def test_peer_death_mid_response_is_typed_with_owner(self):
        server = _DyingServer(owner="fe-wire", die_after=1)
        try:
            frontend = RemoteFrontend(*server.address)
            assert frontend.owner == "fe-wire"  # connect status answered
            with pytest.raises(FrontendUnavailableError) as info:
                frontend.status()               # this one dies mid-frame
            # the typed error carries the dead frontend's identity so the
            # failover path can mark it dead — and the root cause chains
            assert info.value.owner == "fe-wire"
            assert isinstance(info.value.__cause__,
                              (ConnectionError, EOFError))
            frontend.disconnect()
        finally:
            server.close()

    def test_clean_eof_instead_of_reply_is_typed(self):
        server = _DyingServer(owner="fe-eof", die_after=999)
        try:
            frontend = RemoteFrontend(*server.address)
            server._listener.close()
            frontend._sock.close()              # simulate a dead socket
            with pytest.raises(FrontendUnavailableError):
                frontend.status()
        finally:
            server.close()


# ---------------------------------------------------------------------------
# end-to-end: SIGKILL a real serve subprocess mid-session (slow)
# ---------------------------------------------------------------------------

def _shutdown_fields(out: str, prefix: str) -> Dict[str, str]:
    """``key=value`` fields of the one ``prefix`` line in a serve log."""
    lines = [line for line in out.splitlines() if prefix in line]
    assert len(lines) == 1, (prefix, out)
    return dict(field.split("=", 1)
                for field in lines[0].split(prefix, 1)[1].split())


@pytest.mark.slow
class TestSigkillTakeover:
    def test_client_survives_sigkilled_frontend(self, tmp_path):
        ttl = 1.5
        procs = [spawn_serve(tmp_path / "store", "--shard-index", str(i),
                             "--shard-count", "2", "--lease-ttl", str(ttl))
                 for i in range(2)]
        try:
            addrs = [read_ready(p) for p in procs]
            fe0 = RemoteFrontend(addrs[0][0], addrs[0][1])
            fe1 = RemoteFrontend(addrs[1][0], addrs[1][1])
            budget = int(ttl / 0.5) + 12
            client = ServiceClient([fe0, fe1], max_failovers=budget, seed=0)
            client.create("t", SPEC)
            db = build_db(3)
            configs, metrics = drive(lambda i: client.suggest("t", i),
                                     lambda f: client.observe("t", f),
                                     db, 0, 2)
            # frontend 0 owns the lease; SIGKILL leaves it un-released
            procs[0].kill()
            procs[0].wait(timeout=30)
            more, _ = drive(lambda i: client.suggest("t", i),
                            lambda f: client.observe("t", f),
                            db, 2, 4, metrics_history=metrics)
            assert len(configs) + len(more) == 4    # zero lost calls
            assert client.frontend_deaths >= 1
            assert client.policy.directory.is_dead(addrs[0][2])
            assert client.policy.directory.lookup("t") == addrs[1][2]
            fe1.disconnect()
        finally:
            out = "".join(stop_serve(*procs))
        # the survivor drained clean and logged the stale takeover
        assert procs[1].returncode == 0
        assert "shutdown clean" in out
        assert "unanswered=0" in out
        assert "lease takeover: tenant=t" in out

    def test_sharded_fleet_recovers_every_orphan(self, tmp_path, capsys):
        """Two sharded frontends with janitors serve 12 tenants, created
        round-robin.  A directory-refreshed client pre-routes interval 0
        with no redirect.  Once every tenant has finished it, frontend 1
        is SIGKILLed with its 6 leases held, and intervals 1-3 run for
        every tenant: no call may fail, every orphan moves to the
        survivor, and the survivor drains clean with its janitor never
        outside its shard."""
        ttl = 1.5
        n_tenants, n_intervals = 12, 4
        procs = [spawn_serve(tmp_path / "store", "--shard-index", str(i),
                             "--shard-count", "2", "--lease-ttl", str(ttl),
                             "--janitor-interval", "0.5")
                 for i in range(2)]
        tenants = [f"k{i:02d}" for i in range(n_tenants)]
        orphans = tenants[1::2]              # created on frontend 1

        async def scenario(addresses, owners):
            # leases renew only on use: create every tenant at once so
            # none lapses before its first interval
            setup = AsyncServiceClient(addresses, seed=0)
            await setup.connect()
            for i, tenant in enumerate(tenants):
                setup.route_to(tenant, owners[i % 2])
            await asyncio.gather(*(
                setup.create(tenant, TenantSpec(space="case_study", seed=i))
                for i, tenant in enumerate(tenants)))
            await setup.aclose()

            # a survivor bounces an orphan's calls until the corpse's
            # lease lapses: the budget must cover that wait at the
            # backoff cap, on top of the ordinary failover allowance
            client = AsyncServiceClient(
                addresses, seed=1,
                max_failovers=int(ttl / DEFAULT_BACKOFF_CAP) + 16)
            await client.connect()
            assert await client.refresh_directory() == n_tenants
            dbs = {tenant: build_db(i) for i, tenant in enumerate(tenants)}
            last: Dict[str, Dict[str, float]] = {t: {} for t in tenants}
            done = {tenant: 0 for tenant in tenants}
            recovered: Dict[str, float] = {}
            killed_at = None

            async def interval(tenant, t):
                db = dbs[tenant]
                inp = _suggest_input(db, t, last[tenant])
                config = await client.suggest(tenant, inp)
                if killed_at is not None and tenant in orphans:
                    recovered.setdefault(tenant,
                                         time.perf_counter() - killed_at)
                feedback, _ = _run_interval(db, inp, config)
                await client.observe(tenant, feedback)
                last[tenant] = feedback.metrics
                done[tenant] += 1

            async def rest_of_session(tenant):
                for t in range(1, n_intervals):
                    await interval(tenant, t)

            errors = [e for e in await asyncio.gather(
                *(interval(tenant, 0) for tenant in tenants),
                return_exceptions=True) if e is not None]
            assert not errors, errors
            # the directory sent every first hop to the lease holder
            assert client.redirects == 0, client.redirects
            assert client.first_hop_misses == 0, client.first_hop_misses
            assert client.first_hop_hits == 2 * n_tenants

            # every tenant finished interval 0: kill frontend 1 with its
            # leases held
            killed_at = time.perf_counter()
            procs[1].kill()
            procs[1].wait(timeout=30)
            errors = [e for e in await asyncio.gather(
                *(rest_of_session(tenant) for tenant in tenants),
                return_exceptions=True) if e is not None]
            status = await client.status(owners[0])
            await client.aclose()
            return errors, done, recovered, client, status

        try:
            addrs = [read_ready(p) for p in procs]
            addresses = [(host, port) for host, port, _ in addrs]
            owners = [owner for _, _, owner in addrs]
            errors, done, recovered, client, status = asyncio.run(
                scenario(addresses, owners))
        finally:
            survivor_out, _ = stop_serve(*procs)

        assert not errors, errors                         # no call raised
        assert done == {tenant: n_intervals for tenant in tenants}
        assert client.frontend_deaths >= 1
        for orphan in orphans:
            assert client.policy.directory.lookup(orphan) == owners[0]
        assert sorted(recovered) == orphans
        assert status["inflight"] == 0 and status["stats"]["unanswered"] == 0
        # the survivor drained clean, its janitor stayed in its shard,
        # and it logged the takeover of every orphan
        assert procs[0].returncode == 0, survivor_out
        assert _shutdown_fields(survivor_out,
                                "shutdown clean:")["unanswered"] == "0"
        janitor = _shutdown_fields(survivor_out, "janitor clean:")
        assert int(janitor["sweeps"]) >= 1
        assert janitor["cross_shard"] == "0"
        assert janitor["failed_sweeps"] == "0"
        for orphan in orphans:
            assert f"lease takeover: tenant={orphan} " in survivor_out

        takeover_ms = {orphan: 1e3 * recovered[orphan] for orphan in orphans}
        p50, p95 = np.percentile(list(takeover_ms.values()), [50, 95])
        with capsys.disabled():
            print(f"\norphan takeover at lease_ttl={ttl:g}s, kill to first "
                  f"success: " + ", ".join(
                      f"{orphan} {ms:.0f} ms"
                      for orphan, ms in takeover_ms.items())
                  + f"; p50 {p50:.0f} ms, p95 {p95:.0f} ms")
