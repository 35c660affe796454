"""Asyncio wire frontend for :class:`~repro.service.service.TuningService`.

One :class:`TuningServer` turns an in-process service into a network
frontend that sustains thousands of concurrent tenant streams:

* **Transport** — an ``asyncio`` TCP server speaking the length-prefixed
  JSON protocol of :mod:`~repro.service.transport.protocol`.  Requests
  pipeline freely per connection; responses carry the request ``id`` and
  may complete out of order across tenants (never within one tenant).
* **Per-tenant queues** — each tenant owns a bounded FIFO of pending
  requests, so one chatty tenant can neither starve nor reorder its
  neighbors.  A single dispatcher drains the queues in rounds of *at
  most one request per tenant* and executes each round as one coalesced
  :meth:`~repro.service.service.TuningService.step_batch` call on a
  worker thread — concurrent observe streams share one fused
  cross-tenant kernel GEMM per round, and the event loop keeps
  accepting traffic while the round computes.
* **Backpressure** — a request that would overflow its tenant queue (or
  the global ``max_inflight`` budget) is answered immediately with
  ``RETRY_AFTER`` instead of being buffered: queue memory stays bounded
  by ``max_inflight`` no matter how hard clients push, and the clients'
  jittered-backoff failover budget turns the hint into bounded retreat.
  Overload is *load shedding with an answer*, never a silent drop.
* **Clean shutdown** — :meth:`stop` stops accepting, drains every queued
  request through the dispatcher, answers it, then closes connections.
  :meth:`stats` exposes the accounting invariant that ``serve``'s
  shutdown line reports and the end-to-end benchmark asserts:
  ``accepted == completed + rejected`` and zero requests dropped
  without acknowledgement.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from ..service import StepCall, TuningService
from ..janitor import shard_coordinates
from . import protocol

__all__ = ["TuningServer"]

log = logging.getLogger(__name__)

#: default per-tenant pending-request bound
DEFAULT_QUEUE_DEPTH = 8
#: default global pending-request bound across all tenants
DEFAULT_MAX_INFLIGHT = 1024
#: default overload hint, seconds (roughly one dispatch round)
DEFAULT_RETRY_AFTER = 0.05

#: ops that address one tenant and flow through its queue
_TENANT_OPS = ("create", "suggest", "observe", "checkpoint", "resume",
               "close")


class _Pending:
    """One queued request: wire fields plus where to answer."""

    __slots__ = ("request_id", "op", "tenant", "call", "conn")

    def __init__(self, request_id: Any, op: str, tenant: str,
                 call: StepCall, conn: "_Connection") -> None:
        self.request_id = request_id
        self.op = op
        self.tenant = tenant
        self.call = call
        self.conn = conn


class _Connection:
    """Per-connection write side with serialized frame writes."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.closed = False

    async def send(self, response: Dict[str, Any]) -> bool:
        """Write one response frame; False if the peer is gone."""
        if self.closed:
            return False
        async with self.lock:
            if self.closed:
                return False
            try:
                await protocol.write_frame(self.writer, response)
            except (ConnectionError, RuntimeError, OSError):
                self.closed = True
                return False
        return True


class TuningServer:
    """Serve one :class:`TuningService` over asyncio TCP.

    Parameters
    ----------
    service:
        The frontend's service instance (owns the store, leases, LRU).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    queue_depth:
        Per-tenant pending-request bound; the (queue_depth+1)-th
        concurrent request for one tenant is shed with ``RETRY_AFTER``.
    max_inflight:
        Global pending bound across all tenants — the frontend's total
        queue memory is ``O(max_inflight)``.
    retry_after:
        Overload hint (seconds) carried in ``RETRY_AFTER`` responses.
    shard_index / shard_count:
        This frontend's identity in an N-frontend fleet (strided
        ``position % shard_count`` over the sorted tenant namespace, the
        partition its sharded janitor sweeps); ``ValueError`` unless
        ``0 <= shard_index < shard_count``.  Reported
        in ``status`` so operators and harnesses can see the topology;
        the serving path itself never rejects out-of-shard tenants —
        leases, not shards, own exclusion.
    """

    def __init__(self, service: TuningService, host: str = "127.0.0.1",
                 port: int = 0, queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 retry_after: float = DEFAULT_RETRY_AFTER,
                 shard_index: int = 0, shard_count: int = 1) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self.queue_depth = max(1, int(queue_depth))
        self.max_inflight = max(1, int(max_inflight))
        self.retry_after = float(retry_after)
        self.shard_index, self.shard_count = shard_coordinates(
            shard_index, shard_count)
        # tenant -> FIFO of _Pending; OrderedDict gives deterministic
        # round-robin order across tenants
        self._queues: "OrderedDict[str, Deque[_Pending]]" = OrderedDict()
        self._inflight = 0
        self._work = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopping = False
        self._connections: List[_Connection] = []
        self._stats = {
            "accepted": 0,        # requests read off a socket
            "completed": 0,       # answered with ok/lease_*/error
            "rejected": 0,        # answered with retry_after (overload)
            "unanswered": 0,      # peer vanished before its answer
            "rounds": 0,          # coalesced step_batch rounds
            "round_calls": 0,     # tenant calls across all rounds
            "max_round": 0,       # widest round (tenants coalesced at once)
            "fused_rows": 0,      # GP append rows drained via step_batch
            "fused_groups": 0,    # fused kernel GEMM groups executed
            "aborted_connections": 0,  # teardown errors closing a socket
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, drain and answer every queued request, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping = True
        self._work.set()                     # wake the dispatcher to exit
        if self._dispatcher is not None:
            await self._dispatcher
        for conn in self._connections:
            conn.closed = True
            self._close_writer(conn.writer)
        # serving guarantee: nothing was left in a queue unanswered
        if self._inflight or any(self._queues.values()):
            raise RuntimeError(
                f"drain left {self._inflight} request(s) queued")

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        """Close one transport, counting (not hiding) teardown failures.

        A close that raises means the socket died under us (peer reset,
        event loop torn down).  The request accounting already covered
        the in-flight answer, but the *connection* loss must stay
        visible: ``aborted_connections`` keeps these out of the silent
        ``pass`` bucket so an operator can tell "drained clean" from
        "drained, but sockets were dying".
        """
        try:
            writer.close()
        except Exception:
            self._stats["aborted_connections"] += 1

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.append(conn)
        try:
            while True:
                try:
                    request = await protocol.read_frame(reader)
                except protocol.ConnectionClosedError as exc:
                    # the peer died mid-frame — a crashed client, not a
                    # protocol violation: count it with the other torn
                    # sockets instead of warning about bad wire data
                    log.info("peer vanished mid-frame: %s", exc)
                    self._stats["aborted_connections"] += 1
                    break
                except protocol.FrameError as exc:
                    log.warning("dropping connection: %s", exc)
                    break
                if request is None:          # clean EOF
                    break
                await self._handle_request(request, conn)
        finally:
            conn.closed = True
            self._connections.remove(conn)
            self._close_writer(writer)

    async def _handle_request(self, request: Any, conn: _Connection) -> None:
        if not isinstance(request, dict):
            await conn.send({"id": None, "status": "error",
                             "error": "request frame must be an object"})
            return
        request_id = request.get("id")
        op = request.get("op")
        tenant = request.get("tenant")
        payload = request.get("payload") or {}
        self._stats["accepted"] += 1
        if op == "status":                   # global, cheap: serve inline
            await self._answer(conn, protocol.ok_response(
                request_id, self._status_result()))
            return
        if op == "directory":                # global, read-only: inline
            await self._answer(conn, protocol.ok_response(
                request_id, {"owners": self.service.directory()}))
            return
        if op not in _TENANT_OPS or not isinstance(tenant, str) or not tenant:
            await self._answer(conn, {
                "id": request_id, "status": "error",
                "error": f"unknown op {op!r} or missing tenant"})
            return
        if self._stopping:
            await self._answer(conn, {
                "id": request_id, "status": "retry_after",
                "retry_after": self.retry_after,
                "error": "frontend is shutting down"}, kind="rejected")
            return
        try:
            call = self._build_call(op, tenant, payload)
        except Exception as exc:
            await self._answer(conn, protocol.error_response(request_id, exc))
            return
        queue = self._queues.get(tenant)
        depth = len(queue) if queue is not None else 0
        if depth >= self.queue_depth or self._inflight >= self.max_inflight:
            # backpressure: shed *with an answer*, never buffer past the
            # bound — this is what keeps queue memory O(max_inflight)
            await self._answer(conn, {
                "id": request_id, "status": "retry_after",
                "retry_after": self.retry_after,
                "error": (f"tenant queue full (depth {self.queue_depth})"
                          if depth >= self.queue_depth else
                          f"frontend at max_inflight={self.max_inflight}")},
                kind="rejected")
            return
        if queue is None:
            queue = self._queues.setdefault(tenant, deque())
        queue.append(_Pending(request_id, op, tenant, call, conn))
        self._inflight += 1
        self._work.set()

    def _build_call(self, op: str, tenant: str,
                    payload: Dict[str, Any]) -> StepCall:
        """Decode a wire payload into the service call it denotes."""
        if op == "suggest":
            inp = protocol.decode_suggest_input(payload["input"])
            return StepCall(tenant, "suggest", (inp,))
        if op == "observe":
            fb = protocol.decode_feedback(payload["feedback"])
            return StepCall(tenant, "observe", (fb,))
        if op == "create":
            return StepCall(tenant, "create", (),
                            _decode_create_kwargs(payload))
        if op == "close":
            kwargs = {}
            if "register_knowledge" in payload:
                kwargs["register_knowledge"] = bool(
                    payload["register_knowledge"])
            return StepCall(tenant, "close", (), kwargs)
        return StepCall(tenant, op)          # checkpoint / resume

    def _status_result(self) -> Dict[str, Any]:
        return {
            "owner": self.service.leases.owner,
            "tenants": self.service.tenants(),
            "live": self.service.live_tenants(),
            "inflight": self._inflight,
            "queue_depth": self.queue_depth,
            "max_inflight": self.max_inflight,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "stats": self.stats(),
        }

    # -- dispatch ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Drain the tenant queues in coalesced rounds until stopped."""
        while True:
            if not self._inflight:
                if self._stopping:
                    return
                self._work.clear()
                await self._work.wait()
                continue
            round_ = self._take_round()
            self._stats["rounds"] += 1
            self._stats["round_calls"] += len(round_)
            self._stats["max_round"] = max(self._stats["max_round"],
                                           len(round_))
            calls = [pending.call for pending in round_]
            try:
                outcomes, fuse_stats = await asyncio.to_thread(
                    self.service.step_batch, calls)
            except BaseException:
                # step_batch captures per-call errors; reaching here means
                # the dispatcher itself broke — answer what we took so
                # nothing hangs, then surface the bug
                for pending in round_:
                    await self._answer(pending.conn, {
                        "id": pending.request_id, "status": "error",
                        "error": "internal dispatcher failure"})
                raise
            self._stats["fused_rows"] += fuse_stats["rows"]
            self._stats["fused_groups"] += fuse_stats["groups"]
            for pending, outcome in zip(round_, outcomes):
                if outcome.ok:
                    response = protocol.ok_response(
                        pending.request_id,
                        _encode_result(pending.op, outcome.value))
                else:
                    response = protocol.error_response(pending.request_id,
                                                       outcome.error)
                await self._answer(pending.conn, response)

    def _take_round(self) -> List[_Pending]:
        """Pop at most one pending request per tenant, round-robin fair.

        Per-tenant FIFO order is preserved by construction: a tenant's
        second request cannot enter a round before its first completed.
        """
        round_: List[_Pending] = []
        empty: List[str] = []
        for tenant, queue in self._queues.items():
            if queue:
                round_.append(queue.popleft())
                self._inflight -= 1
            if not queue:
                empty.append(tenant)
        for tenant in empty:                 # don't leak per-tenant deques
            del self._queues[tenant]
        return round_

    async def _answer(self, conn: _Connection, response: Dict[str, Any],
                      kind: str = "completed") -> None:
        """Send one response and account it: every accepted request ends
        up in exactly one of completed / rejected / unanswered, so
        ``accepted == completed + rejected + unanswered`` is an
        invariant callers can assert."""
        if await conn.send(response):
            self._stats[kind] += 1
        else:
            # the peer disconnected before its answer; the request was
            # still fully served, just unacknowledgeable
            self._stats["unanswered"] += 1


def _decode_create_kwargs(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..service import TenantSpec
    kwargs: Dict[str, Any] = {}
    spec_obj = payload.get("spec")
    if spec_obj is not None:
        kwargs["spec"] = TenantSpec(
            space=spec_obj.get("space", "mysql57"),
            seed=int(spec_obj.get("seed", 0)),
            memory_bytes=spec_obj.get("memory_bytes"),
            vcpus=spec_obj.get("vcpus"),
            initial_config=spec_obj.get("initial_config"))
    if payload.get("warm_start_neighbors"):
        kwargs["warm_start_neighbors"] = int(payload["warm_start_neighbors"])
    if payload.get("probe_snapshot") is not None:
        kwargs["probe_snapshot"] = protocol.decode_snapshot(
            payload["probe_snapshot"])
    return kwargs


def _encode_result(op: str, value: Any) -> Any:
    """Shape a service return value for the wire (see protocol table)."""
    if op == "suggest":
        return {"config": protocol.plain(value)}
    if op in ("checkpoint", "close"):
        return {"path": str(value)}
    if op == "create":
        return {"created": True, "n_observations": len(value.repo)}
    if op == "resume":
        return {"n_observations": len(value.repo)}
    return None                              # observe
