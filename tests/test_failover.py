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

The slow-marked end-to-end test SIGKILLs a real ``serve`` subprocess
mid-session and asserts the client finishes the trajectory on the
survivor (run via ``make test-service``).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import (
    FailoverExhaustedError,
    FrontendUnavailableError,
    ServiceClient,
    TenantSpec,
    TuningService,
)
from repro.service.client import DirectoryCache, FailoverPolicy
from repro.service.lease import LeaseHeldError
from repro.service.transport import RemoteFrontend
from repro.service.transport import protocol

from service_utils import build_db, drive, step

REPO_ROOT = Path(__file__).resolve().parents[1]

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

def _spawn_serve(root: Path, index: int, ttl: float) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.service.cli", "serve",
         "--port", "0", "--store-root", str(root),
         "--shard-index", str(index), "--shard-count", "2",
         "--lease-ttl", str(ttl)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _read_ready(proc: subprocess.Popen):
    for _ in range(200):
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("READY "):
            _, host, port, owner = line.split()
            return host, int(port), owner
    raise AssertionError("serve never printed READY")


@pytest.mark.slow
class TestSigkillTakeover:
    def test_client_survives_sigkilled_frontend(self, tmp_path):
        ttl = 1.5
        procs = [_spawn_serve(tmp_path / "store", i, ttl) for i in range(2)]
        try:
            addrs = [_read_ready(p) for p in procs]
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
            out = ""
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
            for proc in procs:
                try:
                    stdout, _ = proc.communicate(timeout=60)
                    out += stdout or ""
                except subprocess.TimeoutExpired:
                    proc.kill()
        # the survivor drained clean and logged the stale takeover
        assert procs[1].returncode == 0
        assert "shutdown clean" in out
        assert "unanswered=0" in out
        assert "lease takeover: tenant=t" in out
