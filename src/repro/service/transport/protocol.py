"""Wire protocol: length-prefixed JSON frames + payload codec.

This module is the protocol *reference*: both ends of the wire (the
asyncio server in :mod:`~repro.service.transport.server`, the sync and
async clients in :mod:`~repro.service.transport.client`) are built from
the helpers here and nothing else, so the format below is authoritative.

Framing
=======

Every message — either direction — is one *frame*::

    +-------------------+----------------------------+
    | length: u32 (BE)  | body: `length` bytes UTF-8 |
    +-------------------+----------------------------+

The body is one JSON object.  ``length`` counts body bytes only and
must not exceed :data:`MAX_FRAME_BYTES` (oversized frames poison the
stream and close the connection).  Frames may be pipelined: a client may
send many requests before reading responses, and responses may arrive
out of order — the ``id`` field correlates them.

Requests
========

::

    {"id": <int>, "op": <str>, "tenant": <str|null>, "payload": <obj>}

``id`` is chosen by the client and echoed verbatim in the response.
``tenant`` addresses one tenant for every op except ``status`` and
``directory`` (which are frontend-global and served inline, bypassing
the tenant queues).

=============  =====================================  ========================================
op             payload                                result (on ``"ok"``)
=============  =====================================  ========================================
``status``     ``{}``                                 ``{"owner", "tenants", "live",
                                                      "inflight", "queue_depth",
                                                      "max_inflight", "shard_index",
                                                      "shard_count", "stats"}``
``directory``  ``{}``                                 ``{"owners": {tenant: owner, ...}}`` —
                                                      the store's lease-holder hint map;
                                                      clients bulk-refresh their pre-routing
                                                      cache from it.  Hints may be stale: a
                                                      wrong entry degrades to one
                                                      ``lease_held`` redirect, never an error
``create``     ``{"spec": {"space", "seed",           ``{"created": true, "n_observations"}``
               "memory_bytes", "vcpus",               — ``spec.initial_config`` (knob name →
               "initial_config"?}?,                   value) is the instance's current
               "warm_start_neighbors"?,               configuration, where the tenant starts;
               "probe_snapshot"?}``                   an unknown knob or a value the knob
                                                      would clip is an ``"error"`` naming
                                                      ``ValueError``
``suggest``    ``{"input": <SuggestInput>}``          ``{"config": <Configuration>}``
``observe``    ``{"feedback": <Feedback>}``           ``null``
``checkpoint`` ``{}``                                 ``{"path": <str>}``
``resume``     ``{}``                                 ``{"n_observations": <int>}``
``close``      ``{"register_knowledge": <bool>?}``    ``{"path": <str>}``
=============  =====================================  ========================================

Responses
=========

::

    {"id": <int>, "status": <str>, "result": <obj>,
     "holder": <str|null>, "retry_after": <float|null>, "error": <str|null>}

``status`` is one of

* ``"ok"`` — ``result`` holds the op's return value.
* ``"lease_held"`` — another frontend owns the tenant's lease right
  now; ``holder`` carries that frontend's lease-owner identity and
  ``retry_after`` the seconds until its lease would lapse.  Clients map
  ``holder`` back to an address and redirect (the same contract
  :class:`~repro.service.lease.LeaseHeldError` gives in-process
  callers — the redirect is *carried as a protocol response*).
* ``"lease_lost"`` — the serving frontend lost the lease mid-call;
  retry (it rehydrates, or surfaces the new holder as ``lease_held``).
* ``"retry_after"`` — backpressure: the tenant's bounded queue (or the
  frontend's global in-flight budget) is full and the request was
  *shed before queueing*; ``retry_after`` hints when to come back.
  Maps to :class:`~repro.service.client.OverloadedError`, which the
  clients' jittered-backoff failover budget honors.
* ``"error"`` — the op raised; ``error`` is the stringified cause.

Every accepted connection gets exactly one response per request frame,
including during shutdown: the server drains its queues before closing,
so a request is either answered or was never read off the socket.

Payload codec
=============

:class:`~repro.baselines.base.SuggestInput` /
:class:`~repro.baselines.base.Feedback` /
:class:`~repro.workloads.base.WorkloadSnapshot` / ``Configuration``
serialize field-by-field to plain JSON types (see the ``encode_*`` /
``decode_*`` pairs).  Python's JSON round-trips ``float`` via repr —
bit-exact for every finite and non-finite IEEE-754 double — and
preserves int/str/bool and dict insertion order, which is what lets the
transport equivalence suite assert *bit-identical* suggestions over the
wire versus in-process calls.  NumPy scalars are converted to their
exact built-in equivalents on encode.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from ...baselines.base import Feedback, SuggestInput
from ...workloads.base import WorkloadSnapshot
from ..lease import LeaseHeldError, LeaseLostError
from ..client import RETRYABLE_CALL_ERRORS, OverloadedError

__all__ = [
    "MAX_FRAME_BYTES",
    "RETRYABLE_ERRORS",
    "ConnectionClosedError",
    "FrameError",
    "RemoteCallError",
    "encode_frame",
    "read_frame",
    "write_frame",
    "send_frame",
    "recv_frame",
    "encode_snapshot",
    "decode_snapshot",
    "encode_suggest_input",
    "decode_suggest_input",
    "encode_feedback",
    "decode_feedback",
    "plain",
    "ok_response",
    "error_response",
    "response_to_error",
]

#: hard per-frame ceiling; a SuggestInput with a 30-query snapshot is
#: a few KB, so anything near this is a corrupt length field
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct("!I")


#: the typed errors a client may retry under its failover budget
#: (re-exported from the sans-I/O client module so both stay in sync:
#: lease_held/lease_lost/retry_after responses plus frontend death)
RETRYABLE_ERRORS = RETRYABLE_CALL_ERRORS


class FrameError(RuntimeError):
    """Malformed wire data: oversized frame, truncated body, non-JSON."""


class ConnectionClosedError(FrameError, ConnectionError):
    """The peer vanished mid-frame: EOF inside a header or body.

    A :class:`FrameError` (torn wire data) that is *also* a
    ``ConnectionError`` — the wire clients catch the latter and wrap it
    into :class:`~repro.service.client.FrontendUnavailableError`, while
    protocol-level tests asserting on torn frames keep matching
    :class:`FrameError`.
    """


class RemoteCallError(RuntimeError):
    """The remote op failed for a non-retryable reason (status 'error')."""


# -- framing ----------------------------------------------------------------

def encode_frame(obj: Any) -> bytes:
    """One length-prefixed frame, ready to write."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds "
                         f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def _decode_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from exc


async def read_frame(reader) -> Optional[Any]:
    """Read one frame from an asyncio stream; None on clean EOF."""
    import asyncio
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None                      # clean EOF between frames
        raise ConnectionClosedError("connection closed mid-header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"announced frame of {length} bytes exceeds "
                         f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosedError("connection closed mid-frame") from exc
    return _decode_body(body)


async def write_frame(writer, obj: Any) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(obj))
    await writer.drain()


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Blocking-socket counterpart of :func:`write_frame`."""
    sock.sendall(encode_frame(obj))


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Blocking-socket counterpart of :func:`read_frame`."""
    header = _recv_exact(sock, _LEN.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"announced frame of {length} bytes exceeds "
                         f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length, eof_ok=False)
    return _decode_body(body)


def _recv_exact(sock: socket.socket, n: int,
                eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None                  # clean EOF between frames
            raise ConnectionClosedError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- payload codec ----------------------------------------------------------

def plain(value: Any) -> Any:
    """Recursively reduce a payload value to built-in JSON types.

    NumPy scalars carry exact built-in equivalents (``.item()``); only
    genuinely unserializable objects raise.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None:                     # numpy scalar
        return plain(item())
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def encode_snapshot(snapshot: WorkloadSnapshot) -> Dict[str, Any]:
    return {
        "iteration": int(snapshot.iteration),
        "queries": [str(q) for q in snapshot.queries],
        "arrival_rate": float(snapshot.arrival_rate),
        "rows_examined": [float(r) for r in snapshot.rows_examined],
        "filter_ratios": [float(f) for f in snapshot.filter_ratios],
        "index_used": [bool(i) for i in snapshot.index_used],
    }


def decode_snapshot(obj: Dict[str, Any]) -> WorkloadSnapshot:
    return WorkloadSnapshot(
        iteration=obj["iteration"],
        queries=list(obj["queries"]),
        arrival_rate=obj["arrival_rate"],
        rows_examined=list(obj["rows_examined"]),
        filter_ratios=list(obj["filter_ratios"]),
        index_used=list(obj["index_used"]),
    )


def encode_suggest_input(inp: SuggestInput) -> Dict[str, Any]:
    return {
        "iteration": int(inp.iteration),
        "snapshot": encode_snapshot(inp.snapshot),
        "metrics": plain(dict(inp.metrics)),
        "default_performance": float(inp.default_performance),
        "is_olap": bool(inp.is_olap),
    }


def decode_suggest_input(obj: Dict[str, Any]) -> SuggestInput:
    return SuggestInput(
        iteration=obj["iteration"],
        snapshot=decode_snapshot(obj["snapshot"]),
        metrics=dict(obj["metrics"]),
        default_performance=obj["default_performance"],
        is_olap=obj["is_olap"],
    )


def encode_feedback(feedback: Feedback) -> Dict[str, Any]:
    return {
        "iteration": int(feedback.iteration),
        "config": plain(dict(feedback.config)),
        "performance": float(feedback.performance),
        "metrics": plain(dict(feedback.metrics)),
        "failed": bool(feedback.failed),
        "default_performance": float(feedback.default_performance),
    }


def decode_feedback(obj: Dict[str, Any]) -> Feedback:
    return Feedback(
        iteration=obj["iteration"],
        config=dict(obj["config"]),
        performance=obj["performance"],
        metrics=dict(obj["metrics"]),
        failed=obj["failed"],
        default_performance=obj["default_performance"],
    )


# -- response construction / interpretation ---------------------------------

def ok_response(request_id: Any, result: Any = None) -> Dict[str, Any]:
    return {"id": request_id, "status": "ok", "result": result}


def error_response(request_id: Any, exc: Exception) -> Dict[str, Any]:
    """Map a service exception onto the typed wire statuses."""
    if isinstance(exc, LeaseHeldError):
        return {"id": request_id, "status": "lease_held",
                "holder": exc.holder, "retry_after": exc.retry_after,
                "error": str(exc)}
    if isinstance(exc, LeaseLostError):
        return {"id": request_id, "status": "lease_lost", "error": str(exc)}
    if isinstance(exc, OverloadedError):
        return {"id": request_id, "status": "retry_after",
                "retry_after": exc.retry_after, "error": str(exc)}
    return {"id": request_id, "status": "error",
            "error": f"{type(exc).__name__}: {exc}"}


def response_to_error(response: Dict[str, Any]) -> Exception:
    """Rebuild the typed exception a non-``ok`` response carries.

    The clients raise the result, so the sync :class:`~repro.service.
    client.ServiceClient` failover logic sees exactly the exception
    types an in-process frontend would raise.
    """
    status = response.get("status")
    message = response.get("error") or f"remote call failed ({status})"
    if status == "lease_held":
        return LeaseHeldError(message, holder=response.get("holder"),
                              retry_after=response.get("retry_after"))
    if status == "lease_lost":
        return LeaseLostError(message)
    if status == "retry_after":
        return OverloadedError(message,
                               retry_after=response.get("retry_after"))
    return RemoteCallError(message)
