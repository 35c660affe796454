"""Async wire frontend: real transport for the tuning service.

* :mod:`~repro.service.transport.protocol` — the length-prefixed JSON
  wire format (frames, ops, typed statuses, payload codec).  Its module
  docstring is the protocol reference.
* :mod:`~repro.service.transport.server` — :class:`TuningServer`: an
  asyncio TCP frontend with per-tenant bounded request queues, rounds
  coalesced into :meth:`~repro.service.service.TuningService.step_batch`
  (fused cross-tenant GP appends), ``RETRY_AFTER`` backpressure, and
  drain-then-close shutdown.
* :mod:`~repro.service.transport.client` — :class:`RemoteFrontend`
  (a blocking stub the existing sync
  :class:`~repro.service.client.ServiceClient` fronts unchanged) and
  :class:`AsyncServiceClient` (the asyncio fleet client with the same
  :class:`~repro.service.client.FailoverPolicy` redirects/backoff).

Start a frontend with ``python -m repro.service.cli serve`` and drive it
with either client; the ``fleet-steady`` and ``fleet-churn`` workloads of
``python3 benchmarks/e2e/run.py`` measure throughput and latency against
one.
"""

from .client import AsyncServiceClient, RemoteFrontend
from .protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    RemoteCallError,
)
from .server import TuningServer

__all__ = [
    "MAX_FRAME_BYTES",
    "AsyncServiceClient",
    "FrameError",
    "RemoteCallError",
    "RemoteFrontend",
    "TuningServer",
]
