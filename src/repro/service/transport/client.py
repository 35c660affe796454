"""Wire clients: a sync frontend stub and an asyncio fleet client.

Two consumers of the protocol in :mod:`~repro.service.transport.
protocol`, sharing one failover brain:

* :class:`RemoteFrontend` — a *blocking* stub that looks exactly like an
  in-process :class:`~repro.service.service.TuningService` to the
  existing :class:`~repro.service.client.ServiceClient`: same method
  surface, same ``leases.owner`` identity (fetched from the server's
  ``status`` op at connect), and the same typed exceptions
  (``lease_held``/``lease_lost``/``retry_after`` responses are rebuilt
  into :class:`~repro.service.lease.LeaseHeldError` etc.).  Wrapping N
  stubs in a ``ServiceClient`` gives holder-identity redirects over the
  wire with zero new routing code.
* :class:`AsyncServiceClient` — the asyncio-native fleet client the
  end-to-end benchmark and the takeover test drive: one multiplexed
  connection per frontend
  (pipelined request ids, out-of-order completion), per-tenant
  affinity, and the identical
  :class:`~repro.service.client.FailoverPolicy` jittered-backoff budget
  — redirects on ``lease_held`` holders, waits out ``retry_after``
  overload hints, and raises
  :class:`~repro.service.client.FailoverExhaustedError` when the
  budget is spent.

Both stubs translate *every* transport-level socket failure —
connection refused/reset, EOF mid-response, a peer that vanished
between frames — into the typed
:class:`~repro.service.client.FrontendUnavailableError` carrying the
dead frontend's owner identity.  Raw ``ConnectionError``/``OSError``
never escape a stub: the failover policy needs the typed error to mark
the frontend dead, refresh the directory from a survivor, and re-route.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..client import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_FAILOVER_BUDGET,
    FailoverPolicy,
    FrontendUnavailableError,
)
from ..service import TenantSpec
from . import protocol

__all__ = ["AsyncServiceClient", "RemoteFrontend"]


def _encode_create_payload(spec: Optional[TenantSpec],
                           warm_start_neighbors: int,
                           probe_snapshot) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    if spec is not None:
        if spec.onlinetune_config is not None:
            raise ValueError("onlinetune_config is not wire-serializable; "
                             "provision custom configs server-side")
        payload["spec"] = {"space": spec.space, "seed": spec.seed,
                          "memory_bytes": spec.memory_bytes,
                          "vcpus": spec.vcpus}
        if spec.initial_config is not None:
            payload["spec"]["initial_config"] = protocol.plain(
                spec.initial_config)
    if warm_start_neighbors:
        payload["warm_start_neighbors"] = int(warm_start_neighbors)
    if probe_snapshot is not None:
        payload["probe_snapshot"] = protocol.encode_snapshot(probe_snapshot)
    return payload


class _OwnerShim:
    """Duck-types ``TuningService.leases`` far enough for ServiceClient
    (which only reads ``.owner``)."""

    def __init__(self, owner: str) -> None:
        self.owner = owner


class RemoteFrontend:
    """Blocking stub for one wire frontend (ServiceClient-compatible).

    Connects eagerly: the constructor performs a ``status`` round-trip
    to learn the frontend's lease-owner identity, which
    :class:`~repro.service.client.ServiceClient` keys its redirect map
    on.  One request is in flight at a time per stub (an internal lock
    serializes callers), which matches the sync client's call pattern.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.leases: Optional[_OwnerShim] = None
        try:
            self._sock = socket.create_connection((host, self.port),
                                                  timeout=timeout)
        except (ConnectionError, OSError) as exc:
            raise self._unavailable(exc) from exc
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.leases = _OwnerShim(self.status()["owner"])

    def _unavailable(
            self,
            exc: Optional[BaseException] = None) -> FrontendUnavailableError:
        detail = f": {exc}" if exc is not None else ""
        return FrontendUnavailableError(
            f"frontend {self.host}:{self.port} unreachable{detail}",
            owner=self.leases.owner if self.leases is not None else None)

    @property
    def owner(self) -> str:
        return self.leases.owner

    def disconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.disconnect()

    def _request(self, op: str, tenant: Optional[str],
                 payload: Optional[Dict[str, Any]] = None) -> Any:
        request_id = next(self._ids)
        frame = {"id": request_id, "op": op, "tenant": tenant,
                 "payload": payload or {}}
        try:
            with self._lock:
                protocol.send_frame(self._sock, frame)
                response = protocol.recv_frame(self._sock)
        except (ConnectionError, OSError, EOFError) as exc:
            # covers refused/reset sends, peer death mid-response
            # (protocol.ConnectionClosedError is a ConnectionError), and
            # every other socket-level failure: the stub never leaks a
            # raw socket exception to the failover loop
            raise self._unavailable(exc) from exc
        if response is None:
            raise self._unavailable()        # clean EOF instead of a reply
        if response.get("id") != request_id:
            raise protocol.FrameError(
                f"response id {response.get('id')!r} does not match request "
                f"{request_id}")
        if response.get("status") != "ok":
            raise protocol.response_to_error(response)
        return response.get("result")

    # -- tenant API (mirrors TuningService) ---------------------------------
    def status(self) -> Dict[str, Any]:
        return self._request("status", None)

    def directory(self) -> Dict[str, str]:
        """The store-published tenant→owner map (possibly stale)."""
        return self._request("directory", None)["owners"]

    def create(self, tenant_id: str, spec: Optional[TenantSpec] = None,
               warm_start_neighbors: int = 0,
               probe_snapshot=None) -> Dict[str, Any]:
        return self._request("create", tenant_id, _encode_create_payload(
            spec, warm_start_neighbors, probe_snapshot))

    def suggest(self, tenant_id: str, inp) -> Dict[str, Any]:
        result = self._request("suggest", tenant_id, {
            "input": protocol.encode_suggest_input(inp)})
        return result["config"]

    def observe(self, tenant_id: str, feedback) -> None:
        self._request("observe", tenant_id, {
            "feedback": protocol.encode_feedback(feedback)})

    def checkpoint(self, tenant_id: str) -> Path:
        return Path(self._request("checkpoint", tenant_id)["path"])

    def resume(self, tenant_id: str) -> Dict[str, Any]:
        return self._request("resume", tenant_id)

    def close(self, tenant_id: str, register_knowledge: bool = True) -> Path:
        result = self._request("close", tenant_id,
                               {"register_knowledge": register_knowledge})
        return Path(result["path"])


class _AsyncConnection:
    """One multiplexed asyncio connection to a frontend.

    A dead peer poisons the connection: the read loop records the typed
    :class:`FrontendUnavailableError` in ``_dead_error``, fails every
    in-flight future with it, and all later :meth:`request` calls
    fast-fail with the same error instead of hanging on a future no
    read loop will ever resolve.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self.owner: Optional[str] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._write_lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._dead_error: Optional[Exception] = None

    async def connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        except (ConnectionError, OSError) as exc:
            raise self._unavailable(exc) from exc
        self._reader_task = asyncio.ensure_future(self._read_loop())
        status = await self.request("status", None)
        self.owner = status["owner"]

    def _unavailable(
            self,
            exc: Optional[BaseException] = None) -> FrontendUnavailableError:
        detail = f": {exc}" if exc is not None else ""
        error = FrontendUnavailableError(
            f"frontend {self.host}:{self.port} unreachable{detail}",
            owner=self.owner)
        error.__cause__ = exc
        return error

    async def _read_loop(self) -> None:
        error: Exception
        try:
            while True:
                response = await protocol.read_frame(self._reader)
                if response is None:
                    error = self._unavailable()  # peer closed cleanly
                    break
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, EOFError) as exc:
            # reset mid-read, or EOF mid-frame (ConnectionClosedError)
            error = self._unavailable(exc)
        except Exception as exc:
            error = exc                      # protocol corruption: as-is
        self._dead_error = error
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def request(self, op: str, tenant: Optional[str],
                      payload: Optional[Dict[str, Any]] = None) -> Any:
        """One pipelined round-trip; raises the typed error on non-ok."""
        if self._dead_error is not None:
            raise self._dead_error           # fast-fail: peer already gone
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        frame = {"id": request_id, "op": op, "tenant": tenant,
                 "payload": payload or {}}
        try:
            async with self._write_lock:
                await protocol.write_frame(self._writer, frame)
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise self._unavailable(exc) from exc
        response = await future
        if response.get("status") != "ok":
            raise protocol.response_to_error(response)
        return response.get("result")

    async def aclose(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class AsyncServiceClient:
    """Asyncio fleet client: multiplexed wire transport + failover.

    Usage::

        client = AsyncServiceClient([("127.0.0.1", 7411)])
        await client.connect()
        await client.create("tenant-0", TenantSpec(seed=0))
        config = await client.suggest("tenant-0", inp)
        await client.observe("tenant-0", feedback)
        await client.aclose()

    Many coroutines may call concurrently: requests pipeline over each
    frontend connection and per-tenant ordering is the server's job
    (its per-tenant queues), not the client's.  Failover decisions —
    holder redirects, lost-lease retries, overload backoff — reuse the
    exact :class:`~repro.service.client.FailoverPolicy` the in-process
    sync client runs.
    """

    def __init__(self, addresses: Iterable[Tuple[str, int]],
                 max_failovers: int = DEFAULT_FAILOVER_BUDGET,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 seed: Optional[int] = None) -> None:
        self._addresses = list(addresses)
        if not self._addresses:
            raise ValueError("an AsyncServiceClient needs at least one "
                             "frontend address")
        self.policy = FailoverPolicy(max_failovers=max_failovers,
                                     backoff_base=backoff_base,
                                     backoff_cap=backoff_cap, seed=seed)
        self._connections: List[_AsyncConnection] = []
        self._by_owner: Dict[str, _AsyncConnection] = {}
        self._affinity: Dict[str, _AsyncConnection] = {}
        self.redirects = 0
        self.retries = 0
        self.first_hop_hits = 0      # calls whose first attempt landed
        self.first_hop_misses = 0    # calls that needed >= 1 more hop
        self.frontend_deaths = 0     # FrontendUnavailableError absorbed
        self.directory_refreshes = 0  # death-triggered directory re-fetches

    async def connect(self) -> None:
        for host, port in self._addresses:
            conn = _AsyncConnection(host, port)
            await conn.connect()
            self._connections.append(conn)
            self._by_owner[conn.owner] = conn
        if len(self._by_owner) != len(self._connections):
            raise ValueError("frontends must have distinct lease-owner "
                             "identities")

    async def aclose(self) -> None:
        for conn in self._connections:
            await conn.aclose()

    # -- routing (mirrors ServiceClient._call, awaitably) --------------------
    def _route(self, tenant_id: str) -> _AsyncConnection:
        """Affinity, else the directory's owner hint, else the first
        surviving frontend — dead frontends are never routed to."""
        directory = self.policy.directory
        conn = self._affinity.get(tenant_id)
        if conn is not None:
            if not directory.is_dead(conn.owner):
                return conn
            del self._affinity[tenant_id]
        hinted = self._conn_for_owner(directory.lookup(tenant_id))
        if hinted is not None:
            return hinted
        return self._next_surviving()

    def _conn_for_owner(
            self, owner: Optional[str]) -> Optional[_AsyncConnection]:
        if owner is None or self.policy.directory.is_dead(owner):
            return None
        return self._by_owner.get(owner)

    def _next_surviving(
            self, exclude: Optional[str] = None) -> _AsyncConnection:
        """First connection in probe order whose owner is not marked
        dead (and not ``exclude``); degrades to the very first one."""
        directory = self.policy.directory
        for conn in self._connections:
            if conn.owner != exclude and not directory.is_dead(conn.owner):
                return conn
        return self._connections[0]

    def route_to(self, tenant_id: str, owner: str) -> None:
        """Pin a tenant's next hop to the frontend with ``owner``
        identity (e.g. to spread fresh creates across a fleet).  The pin
        is ordinary affinity: a redirect re-learns the real holder."""
        conn = self._by_owner.get(owner)
        if conn is None:
            raise KeyError(f"no frontend with owner identity {owner!r}")
        self._affinity[tenant_id] = conn

    async def refresh_directory(self) -> int:
        """Bulk-refresh the tenant→owner cache via the ``directory`` op,
        trying surviving frontends in probe order (any one answers —
        they share the store) and marking each that fails dead.
        Returns the number of entries now cached; 0 if none answered."""
        directory = self.policy.directory
        for conn in self._connections:
            if directory.is_dead(conn.owner):
                continue
            try:
                result = await conn.request("directory", None)
            except FrontendUnavailableError:
                if conn.owner is not None:
                    directory.mark_dead(conn.owner)
                continue
            return directory.update(result["owners"])
        return 0

    async def _call(self, tenant_id: str, op: str,
                    payload: Optional[Dict[str, Any]] = None) -> Any:
        conn = self._route(tenant_id)
        state = self.policy.begin(tenant_id, op)
        first_hop = True
        while True:
            try:
                result = await conn.request(op, tenant_id, payload)
            except protocol.RETRYABLE_ERRORS as exc:
                if first_hop:
                    self.first_hop_misses += 1
                    first_hop = False
                decision = state.on_error(exc)
                if decision.refresh:
                    # frontend death: re-learn the directory from a
                    # survivor, then re-route — refreshed hint first,
                    # else next surviving frontend in probe order
                    self.frontend_deaths += 1
                    dead_owner = conn.owner
                    self._affinity.pop(tenant_id, None)
                    await self.refresh_directory()
                    self.directory_refreshes += 1
                    conn = (self._conn_for_owner(
                        self.policy.directory.lookup(tenant_id))
                        or self._next_surviving(exclude=dead_owner))
                    self.redirects += 1
                    await asyncio.sleep(decision.delay)
                    continue
                target = self._conn_for_owner(decision.holder)
                if target is not None and target is not conn:
                    conn = target
                    self.redirects += 1
                else:
                    self.retries += 1
                await asyncio.sleep(decision.delay)
                continue
            if first_hop:
                self.first_hop_hits += 1
            self._affinity[tenant_id] = conn
            self.policy.directory.record(tenant_id, conn.owner)
            if conn.owner is not None:
                self.policy.directory.mark_alive(conn.owner)
            return result

    # -- tenant API ----------------------------------------------------------
    async def status(self, owner: Optional[str] = None) -> Dict[str, Any]:
        conn = self._by_owner.get(owner) if owner else self._connections[0]
        if conn is None:
            raise KeyError(f"no frontend with owner identity {owner!r}")
        return await conn.request("status", None)

    async def create(self, tenant_id: str, spec: Optional[TenantSpec] = None,
                     warm_start_neighbors: int = 0,
                     probe_snapshot=None) -> Dict[str, Any]:
        return await self._call(tenant_id, "create", _encode_create_payload(
            spec, warm_start_neighbors, probe_snapshot))

    async def suggest(self, tenant_id: str, inp) -> Dict[str, Any]:
        result = await self._call(tenant_id, "suggest", {
            "input": protocol.encode_suggest_input(inp)})
        return result["config"]

    async def observe(self, tenant_id: str, feedback) -> None:
        await self._call(tenant_id, "observe", {
            "feedback": protocol.encode_feedback(feedback)})

    async def checkpoint(self, tenant_id: str) -> Path:
        return Path((await self._call(tenant_id, "checkpoint"))["path"])

    async def resume(self, tenant_id: str) -> Dict[str, Any]:
        return await self._call(tenant_id, "resume")

    async def close(self, tenant_id: str,
                    register_knowledge: bool = True) -> Path:
        result = await self._call(tenant_id, "close", {
            "register_knowledge": register_knowledge})
        return Path(result["path"])
