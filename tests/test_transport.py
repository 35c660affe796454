"""Async wire frontend: protocol, equivalence, and backpressure suite.

The load-bearing assertions:

* **Wire equivalence** — a tenant driven over TCP (sync stub or asyncio
  client) receives *bit-identical* suggestions to the same tenant driven
  through an in-process :class:`TuningService`, including across a
  checkpoint/resume cycle, and coalesced ``step_batch`` rounds equal
  direct sequential calls.
* **Backpressure** — a saturating request storm is shed with
  ``RETRY_AFTER`` (never buffered past the bounds, never silently
  dropped), queue memory stays bounded throughout, and a client with a
  jittered-backoff budget rides the storm out to completion.
* **Clean shutdown** — every accepted request is answered even when the
  server stops with queued work; the CLI ``serve`` process exits 0 with
  zero unanswered requests.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time

import numpy as np
import pytest

from repro.baselines.base import Feedback, SuggestInput
from repro.service import (
    FailoverExhaustedError,
    OverloadedError,
    ServiceClient,
    StepCall,
    TenantSpec,
    TuningService,
)
from repro.service.client import FailoverPolicy
from repro.service.lease import LeaseHeldError, LeaseLostError
from repro.service.transport import (
    AsyncServiceClient,
    FrameError,
    RemoteCallError,
    RemoteFrontend,
    TuningServer,
)
from repro.service.transport import protocol
from repro.workloads.base import WorkloadSnapshot

from service_utils import (
    build_db,
    drive,
    read_ready,
    spawn_serve,
    stop_serve,
)


SPEC = TenantSpec(space="case_study", seed=3)


def make_input(iteration: int = 0) -> SuggestInput:
    snapshot = WorkloadSnapshot(
        iteration=iteration, queries=["SELECT 1", "SELECT 'x' FROM t"],
        arrival_rate=123.456, rows_examined=[10.0, 2.5],
        filter_ratios=[0.5, 0.25], index_used=[True, False])
    return SuggestInput(iteration=iteration, snapshot=snapshot,
                        metrics={"qps": 1000.0}, default_performance=950.0)


# ---------------------------------------------------------------------------
# frame + payload codec
# ---------------------------------------------------------------------------

class TestFrameCodec:
    def roundtrip(self, obj):
        frame = protocol.encode_frame(obj)
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            return protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_roundtrip(self):
        obj = {"id": 7, "op": "status", "payload": {"x": [1, 2.5, "s"]}}
        assert self.roundtrip(obj) == obj

    def test_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        frame = protocol.encode_frame({"id": 1})
        a, b = socket.socketpair()
        try:
            a.sendall(frame[:-2])       # body truncated
            a.close()
            with pytest.raises(FrameError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        import struct
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_encode_rejected(self):
        with pytest.raises(FrameError):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_suggest_input_bit_identical(self):
        # exotic-but-legal doubles must survive the wire exactly
        inp = make_input()
        inp.metrics = {"tiny": 5e-324, "neg_zero": -0.0,
                       "huge": 1.7976931348623157e308,
                       "pi": math.pi, "inf": math.inf}
        decoded = protocol.decode_suggest_input(
            json.loads(json.dumps(protocol.encode_suggest_input(inp))))
        assert (protocol.encode_suggest_input(decoded)
                == protocol.encode_suggest_input(inp))
        assert decoded.metrics == inp.metrics
        # -0.0 sign bit survives (== cannot see it)
        assert math.copysign(1.0, decoded.metrics["neg_zero"]) == -1.0

    def test_feedback_roundtrip_with_numpy_scalars(self):
        fb = Feedback(iteration=np.int64(3),
                      config={"a": np.int64(7), "b": np.float64(0.1),
                              "c": "choice", "d": True},
                      performance=np.float64(123.456),
                      metrics={"m": np.float32(2.0).item()},
                      failed=np.bool_(False),
                      default_performance=100.0)
        decoded = protocol.decode_feedback(
            json.loads(json.dumps(protocol.encode_feedback(fb))))
        assert decoded.config == {"a": 7, "b": 0.1, "c": "choice", "d": True}
        assert decoded.performance == 123.456
        assert decoded.failed is False

    def test_plain_rejects_unserializable(self):
        with pytest.raises(TypeError):
            protocol.plain({"f": lambda: None})

    def test_response_to_error_types(self):
        held = protocol.response_to_error(
            {"status": "lease_held", "holder": "fe-2", "retry_after": 1.5,
             "error": "held"})
        assert isinstance(held, LeaseHeldError)
        assert held.holder == "fe-2" and held.retry_after == 1.5
        assert isinstance(protocol.response_to_error(
            {"status": "lease_lost", "error": "lost"}), LeaseLostError)
        overload = protocol.response_to_error(
            {"status": "retry_after", "retry_after": 0.2, "error": "full"})
        assert isinstance(overload, OverloadedError)
        assert overload.retry_after == 0.2
        assert isinstance(protocol.response_to_error(
            {"status": "error", "error": "boom"}), RemoteCallError)


# ---------------------------------------------------------------------------
# failover policy (sans-I/O)
# ---------------------------------------------------------------------------

class TestFailoverPolicy:
    def test_budget_exhaustion_chains_last_error(self):
        state = FailoverPolicy(max_failovers=2, seed=0).begin("t", "suggest")
        state.on_error(LeaseHeldError("h", holder="a"))
        state.on_error(LeaseLostError("l"))
        with pytest.raises(FailoverExhaustedError) as info:
            state.on_error(OverloadedError("o"))
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, OverloadedError)

    def test_holder_carried_only_for_lease_held(self):
        policy = FailoverPolicy(max_failovers=5, seed=1)
        state = policy.begin("t", "observe")
        assert state.on_error(LeaseHeldError("h", holder="fe-9")).holder == "fe-9"
        assert state.on_error(LeaseLostError("l")).holder is None
        assert state.on_error(OverloadedError("o")).holder is None

    def test_overload_hint_floors_backoff(self):
        policy = FailoverPolicy(max_failovers=4, backoff_base=0.0001,
                                backoff_cap=0.5, seed=0)
        state = policy.begin("t", "suggest")
        decision = state.on_error(OverloadedError("full", retry_after=0.2))
        assert decision.delay >= 0.2
        # ... but never past the cap
        state2 = policy.begin("t", "suggest")
        decision2 = state2.on_error(OverloadedError("full", retry_after=60.0))
        assert decision2.delay <= policy.backoff_cap

    def test_jitter_is_bounded_and_deterministic_under_seed(self):
        delays = []
        for _ in range(2):
            policy = FailoverPolicy(max_failovers=8, backoff_base=0.02,
                                    backoff_cap=0.1, seed=42)
            state = policy.begin("t", "m")
            delays.append([state.on_error(LeaseLostError("x")).delay
                           for _ in range(8)])
        assert delays[0] == delays[1]
        assert all(0.0 <= d <= 0.1 for d in delays[0])


# ---------------------------------------------------------------------------
# coalesced step_batch (service level, no sockets)
# ---------------------------------------------------------------------------

class TestStepBatch:
    def drive_direct(self, root, n):
        service = TuningService(root, durability="delta")
        service.create("t", SPEC)
        db = build_db(3)
        configs, _ = drive(lambda inp: service.suggest("t", inp),
                           lambda fb: service.observe("t", fb), db, 0, n)
        return configs

    def test_coalesced_rounds_bit_identical_to_direct(self, tmp_path):
        direct = self.drive_direct(tmp_path / "direct", 4)
        service = TuningService(tmp_path / "batched", durability="delta")
        outcomes, _ = service.step_batch(
            [StepCall("t", "create", (SPEC,)),
             StepCall("u", "create", (TenantSpec(space="case_study", seed=9),))])
        assert all(o.ok for o in outcomes)
        dbs = {"t": build_db(3), "u": build_db(9)}
        last = {"t": {}, "u": {}}
        coalesced = []
        for t in range(4):
            inputs = {}
            for tenant, db in dbs.items():
                profile = db.profile(t)
                inputs[tenant] = SuggestInput(
                    iteration=t, snapshot=db.observe_snapshot(t),
                    metrics=last[tenant],
                    default_performance=db.default_performance(t),
                    is_olap=profile.is_olap)
            outcomes, _ = service.step_batch(
                [StepCall(tenant, "suggest", (inputs[tenant],))
                 for tenant in ("t", "u")])
            assert all(o.ok for o in outcomes)
            configs = {o.call.tenant_id: o.value for o in outcomes}
            coalesced.append(configs["t"])
            observes = []
            for tenant, db in dbs.items():
                result = db.run_interval(t, configs[tenant])
                profile = db.profile(t)
                observes.append(StepCall(tenant, "observe", (Feedback(
                    iteration=t, config=configs[tenant],
                    performance=result.objective(profile.is_olap),
                    metrics=result.metrics, failed=result.failed,
                    default_performance=db.default_performance(t)),)))
                last[tenant] = result.metrics
            outcomes, stats = service.step_batch(observes)
            assert all(o.ok for o in outcomes)
        # tenant "t" saw the exact solo trajectory despite sharing every
        # round (and fused append drains) with tenant "u"
        assert json.dumps(coalesced) == json.dumps(direct)

    def test_per_call_errors_do_not_poison_the_round(self, tmp_path):
        service = TuningService(tmp_path, durability="delta")
        service.create("t", SPEC)
        db = build_db(3)
        profile = db.profile(0)
        inp = SuggestInput(iteration=0, snapshot=db.observe_snapshot(0),
                           metrics={},
                           default_performance=db.default_performance(0),
                           is_olap=profile.is_olap)
        outcomes, _ = service.step_batch(
            [StepCall("ghost", "suggest", (inp,)),      # unknown tenant
             StepCall("t", "bogus_method"),             # not in STEP_METHODS
             StepCall("t", "suggest", (inp,))])
        assert isinstance(outcomes[0].error, KeyError)
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[2].ok and isinstance(outcomes[2].value, dict)


# ---------------------------------------------------------------------------
# wire equivalence
# ---------------------------------------------------------------------------

class ServerThread:
    """A TuningServer on its own event-loop thread (for blocking clients)."""

    def __init__(self, root, **server_kwargs):
        self.root = root
        self.server_kwargs = server_kwargs
        self.loop = asyncio.new_event_loop()
        self.started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.started.wait(timeout=30)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.service = TuningService(self.root, durability="delta")
        self.server = TuningServer(self.service, port=0, **self.server_kwargs)
        self.loop.run_until_complete(self.server.start())
        self.address = self.server.address
        self.started.set()
        self.loop.run_forever()

    def stop(self):
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        return self.server.stats()


def drive_inprocess(root, n, crash_resume_at=None):
    """Reference trajectory: direct TuningService calls, no wire."""
    service = TuningService(root, durability="delta")
    service.create("t", SPEC)
    db = build_db(3)
    configs, _ = drive(lambda inp: service.suggest("t", inp),
                       lambda fb: service.observe("t", fb), db, 0, n)
    if crash_resume_at is not None:
        service.checkpoint("t")
        service.resume("t")
    return configs, service, db


class TestWireEquivalence:
    def test_sync_stub_bit_identical(self, tmp_path):
        reference, _, _ = drive_inprocess(tmp_path / "ref", 5)
        st = ServerThread(tmp_path / "wire")
        try:
            frontend = RemoteFrontend(*st.address)
            client = ServiceClient([frontend], seed=0)
            client.create("t", SPEC)
            db = build_db(3)
            wire, _ = drive(lambda inp: client.suggest("t", inp),
                            lambda fb: client.observe("t", fb), db, 0, 5)
            frontend.disconnect()
        finally:
            stats = st.stop()
        # bit-identical: every knob value, every float bit, every round
        assert json.dumps(wire) == json.dumps(reference)
        assert stats["accepted"] == stats["completed"] + stats["rejected"]
        assert stats["unanswered"] == 0

    def test_async_client_bit_identical_and_resume(self, tmp_path):
        reference, ref_service, ref_db = drive_inprocess(tmp_path / "ref", 4)
        # uninterrupted continuation after an in-process checkpoint+resume
        ref_service.checkpoint("t")
        ref_service.resume("t")
        profile = ref_db.profile(4)
        next_inp = SuggestInput(
            iteration=4, snapshot=ref_db.observe_snapshot(4), metrics={},
            default_performance=ref_db.default_performance(4),
            is_olap=profile.is_olap)
        ref_next = ref_service.suggest("t", next_inp)

        async def scenario():
            service = TuningService(tmp_path / "wire", durability="delta")
            server = TuningServer(service, port=0)
            await server.start()
            client = AsyncServiceClient([server.address], seed=0)
            await client.connect()
            await client.create("t", SPEC)
            db = build_db(3)
            configs = []
            last = {}
            for t in range(4):
                prof = db.profile(t)
                inp = SuggestInput(iteration=t,
                                   snapshot=db.observe_snapshot(t),
                                   metrics=last,
                                   default_performance=db.default_performance(t),
                                   is_olap=prof.is_olap)
                config = await client.suggest("t", inp)
                result = db.run_interval(t, config)
                await client.observe("t", Feedback(
                    iteration=t, config=config,
                    performance=result.objective(prof.is_olap),
                    metrics=result.metrics, failed=result.failed,
                    default_performance=db.default_performance(t)))
                last = result.metrics
                configs.append(config)
            await client.checkpoint("t")
            await client.resume("t")
            next_config = await client.suggest("t", next_inp)
            status = await client.status()
            await client.aclose()
            await server.stop()
            return configs, next_config, status, server.stats()

        wire, wire_next, status, stats = asyncio.run(scenario())
        assert json.dumps(wire) == json.dumps(reference)
        assert json.dumps(wire_next) == json.dumps(protocol.plain(ref_next))
        assert status["owner"] and "t" in status["tenants"]
        assert stats["unanswered"] == 0

    def test_remote_error_is_typed_not_fatal(self, tmp_path):
        async def scenario():
            service = TuningService(tmp_path, durability="delta")
            server = TuningServer(service, port=0)
            await server.start()
            client = AsyncServiceClient([server.address], seed=0)
            await client.connect()
            with pytest.raises(RemoteCallError):
                # unknown tenant: KeyError server-side -> status "error"
                await client.suggest("nobody", make_input())
            # the connection survives typed errors
            assert (await client.status())["stats"]["completed"] >= 1
            await client.aclose()
            await server.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# backpressure / overload
# ---------------------------------------------------------------------------

class SlowService(TuningService):
    """Service whose coalesced rounds take a fixed minimum time, so
    request storms actually pile up in the tenant queues."""

    round_delay = 0.04

    def step_batch(self, calls):
        time.sleep(self.round_delay)
        return super().step_batch(calls)


class TestBackpressure:
    def test_storm_is_shed_bounded_and_fully_answered(self, tmp_path):
        async def scenario():
            service = SlowService(tmp_path, durability="delta")
            server = TuningServer(service, port=0, queue_depth=2,
                                  max_inflight=4, retry_after=0.01)
            await server.start()
            from repro.service.transport.client import _AsyncConnection
            conn = _AsyncConnection(*server.address)
            await conn.connect()

            payload = {"input": protocol.encode_suggest_input(make_input())}
            outcomes = {"ok": 0, "retry_after": 0, "error": 0}
            max_seen = {"inflight": 0}

            async def one_request(i):
                try:
                    await conn.request("suggest", "storm", payload)
                except OverloadedError:
                    outcomes["retry_after"] += 1
                except RemoteCallError:
                    outcomes["error"] += 1   # unknown tenant: executed
                else:
                    outcomes["ok"] += 1

            async def watch_queues():
                while sum(outcomes.values()) < 40:
                    max_seen["inflight"] = max(max_seen["inflight"],
                                               server._inflight)
                    for queue in server._queues.values():
                        assert len(queue) <= server.queue_depth
                    await asyncio.sleep(0.002)

            watcher = asyncio.ensure_future(watch_queues())
            await asyncio.gather(*(one_request(i) for i in range(40)))
            await watcher
            stats = server.stats()
            await conn.aclose()
            await server.stop()
            return outcomes, max_seen, stats

        outcomes, max_seen, stats = asyncio.run(scenario())
        # every one of the 40 requests got exactly one answer
        assert sum(outcomes.values()) == 40
        # the storm was shed, not buffered: queue memory stayed bounded
        assert outcomes["retry_after"] > 0
        assert max_seen["inflight"] <= 4
        # ... and the accounting invariant holds
        assert stats["accepted"] == (stats["completed"] + stats["rejected"]
                                     + stats["unanswered"])
        assert stats["rejected"] == outcomes["retry_after"]
        assert stats["unanswered"] == 0

    def test_backoff_budget_rides_out_the_storm(self, tmp_path):
        async def scenario():
            service = SlowService(tmp_path, durability="delta")
            service.round_delay = 0.02
            server = TuningServer(service, port=0, queue_depth=1,
                                  max_inflight=2, retry_after=0.01)
            await server.start()
            client = AsyncServiceClient([server.address], seed=0,
                                        max_failovers=50,
                                        backoff_base=0.01, backoff_cap=0.05)
            await client.connect()
            await client.create("t", SPEC)
            db = build_db(3)
            prof = db.profile(0)
            inp = SuggestInput(iteration=0, snapshot=db.observe_snapshot(0),
                               metrics={},
                               default_performance=db.default_performance(0),
                               is_olap=prof.is_olap)
            # more concurrent calls than the frontend will ever queue:
            # the surplus is shed and must retry its way through
            configs = await asyncio.gather(
                *(client.suggest("t", inp) for _ in range(6)))
            stats = server.stats()
            retries = client.retries
            await client.aclose()
            await server.stop()
            return configs, retries, stats

        configs, retries, stats = asyncio.run(scenario())
        assert len(configs) == 6 and all(isinstance(c, dict) for c in configs)
        assert stats["rejected"] > 0          # overload responses happened
        assert retries > 0                    # ... and were backed off on
        assert stats["unanswered"] == 0

    def test_exhausted_budget_raises_typed_error(self, tmp_path):
        async def scenario():
            service = SlowService(tmp_path, durability="delta")
            service.round_delay = 0.2
            server = TuningServer(service, port=0, queue_depth=1,
                                  max_inflight=1, retry_after=0.001)
            await server.start()
            client = AsyncServiceClient([server.address], seed=0,
                                        max_failovers=1,
                                        backoff_base=0.001, backoff_cap=0.002)
            await client.connect()
            payload_inp = make_input()
            with pytest.raises(FailoverExhaustedError) as info:
                # 3 concurrent calls on a 1-deep frontend with budget 1:
                # someone must exhaust
                await asyncio.gather(
                    *(client.suggest("storm", payload_inp) for _ in range(3)))
            assert isinstance(info.value.__cause__, OverloadedError)
            await client.aclose()
            await server.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# connection teardown accounting
# ---------------------------------------------------------------------------

class _BrokenWriter:
    """A transport whose close() dies — the teardown failure the server
    must count rather than silently swallow."""

    def close(self):
        raise RuntimeError("event loop is closed")


class TestConnectionTeardown:
    def test_socket_killed_mid_response_lands_in_unanswered(self, tmp_path):
        """A peer that dies between sending a request and reading its
        answer must show up in the accounting — the request is served,
        the lost acknowledgement is counted, and the invariant
        ``accepted == completed + rejected + unanswered`` still holds."""
        async def scenario():
            service = SlowService(tmp_path, durability="delta")
            service.round_delay = 0.2        # answers lag the kill
            server = TuningServer(service, port=0)
            await server.start()
            client = AsyncServiceClient([server.address], seed=0)
            await client.connect()
            await client.create("t", SPEC)
            await client.aclose()

            reader, writer = await asyncio.open_connection(*server.address)
            frame = protocol.encode_frame({
                "id": 1, "op": "suggest", "tenant": "t",
                "payload": {"input":
                            protocol.encode_suggest_input(make_input())}})
            writer.write(frame)
            await writer.drain()
            accepted_before = server.stats()["accepted"]
            for _ in range(200):             # wait until it's off the socket
                if server.stats()["accepted"] > accepted_before:
                    break
                await asyncio.sleep(0.005)
            writer.close()                   # die before the answer arrives
            await server.stop()              # drain answers into the void
            return server.stats()

        stats = asyncio.run(scenario())
        assert stats["unanswered"] == 1
        assert stats["accepted"] == (stats["completed"] + stats["rejected"]
                                     + stats["unanswered"])

    def test_teardown_close_failure_is_counted_not_swallowed(self, tmp_path):
        """The two historical ``except ...: pass`` teardown sites now
        count into ``aborted_connections`` — a dying writer can no
        longer vanish without a trace."""
        async def scenario():
            service = TuningService(tmp_path, durability="delta")
            server = TuningServer(service, port=0)
            await server.start()
            assert server.stats()["aborted_connections"] == 0
            # the per-connection teardown path
            server._close_writer(_BrokenWriter())
            # the stop() fleet-teardown path: a connection whose
            # transport dies during shutdown
            from repro.service.transport.server import _Connection
            server._connections.append(_Connection(_BrokenWriter()))
            await server.stop()
            return server.stats()

        stats = asyncio.run(scenario())
        assert stats["aborted_connections"] == 2
        # aborted connections are a separate axis: request accounting
        # stays exact
        assert stats["accepted"] == (stats["completed"] + stats["rejected"]
                                     + stats["unanswered"])


# ---------------------------------------------------------------------------
# CLI serve mode
# ---------------------------------------------------------------------------

class TestServeCli:
    def test_serve_smoke(self, tmp_path):
        proc = spawn_serve(tmp_path / "store",
                           "--max-inflight", "64", "--queue-depth", "4")
        try:
            host, port, owner = read_ready(proc)
            frontend = RemoteFrontend(host, port)
            assert frontend.owner == owner
            frontend.create("smoke", SPEC)
            db = build_db(3)
            configs, _ = drive(lambda inp: frontend.suggest("smoke", inp),
                               lambda fb: frontend.observe("smoke", fb),
                               db, 0, 2)
            assert len(configs) == 2
            status = frontend.status()
            assert status["max_inflight"] == 64
            assert status["queue_depth"] == 4
            assert "smoke" in status["tenants"]
            frontend.disconnect()
        finally:
            out, = stop_serve(proc)
        assert proc.returncode == 0, out
        assert "shutdown clean" in out
        assert "unanswered=0" in out
        assert "released=1 release_errors=0" in out
        # the drain let go of the lease: a restarted frontend resumes the
        # tenant at once instead of being refused for the lease TTL
        restarted = TuningService(tmp_path / "store", durability="delta")
        assert "smoke" not in restarted.store.read_owners()
        assert len(restarted.resume("smoke").repo) == 2

    def test_subcommand_is_required(self, capsys):
        from repro.service import cli
        assert cli.main(["--tenants", "2"]) == 2
        assert cli.main([]) == 2
        assert "a subcommand is required" in capsys.readouterr().err
