"""Tuning-as-a-service layer.

Turns the in-process tuner into a durable, concurrent, multi-tenant
service:

* :mod:`~repro.service.checkpoint` — a versioned, checksummed on-disk
  envelope for full tuner state plus the append-only delta *segment*
  format; save/load round-trips are bit-identical.
* :mod:`~repro.service.store` — per-tenant checkpoint namespaces:
  sequence-numbered snapshots, delta chains (``save_delta`` /
  ``load_latest_chain``), and chain-safe pruning.
* :mod:`~repro.service.lease` — file-based per-tenant leases (TTL,
  heartbeat renewal, stale takeover) so several frontends can share one
  store with exactly one writer per tenant.
* :mod:`~repro.service.knowledge` — a knowledge base indexing persisted
  repositories by workload-context signature; warm-starts new tenants
  from their nearest neighbors with distance-decayed weights.
* :mod:`~repro.service.service` — :class:`TuningService`: many concurrent
  tenant sessions behind a ``create/suggest/observe/checkpoint/resume/
  close`` API, an LRU of hydrated sessions backed by the store, and
  coalesced ``step_batch`` rounds (one call per tenant, fused GP
  appends).  A tenant created with ``TenantSpec(initial_config=...)``
  starts at its instance's current configuration, as the paper's
  tuner does.
* :mod:`~repro.service.client` — :class:`ServiceClient`: a thin SDK that
  turns ``LeaseHeldError`` into a redirect to the holding frontend, with
  jittered backoff and a bounded failover budget.
* :mod:`~repro.service.janitor` — :class:`Janitor`: idle-time delta-chain
  compaction and retention pruning under its own lease, keeping the
  ~30 ms envelope write off the suggest/observe hot path.
* :mod:`~repro.service.transport` — the async wire frontend: a
  length-prefixed JSON protocol, an asyncio TCP server with per-tenant
  bounded queues + ``RETRY_AFTER`` backpressure, and sync/async wire
  clients sharing the :class:`FailoverPolicy` redirect/backoff logic.
  (Imported lazily — ``from repro.service.transport import ...`` — so
  the service core stays importable in minimal environments.)
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    SEGMENT_VERSION,
    CheckpointError,
    SegmentError,
    StaleFenceError,
    count_segment_records,
    load_checkpoint,
    read_fence,
    read_metadata,
    read_segment,
    save_checkpoint,
)
from .client import (
    DirectoryCache,
    FailoverExhaustedError,
    FailoverPolicy,
    FrontendUnavailableError,
    OverloadedError,
    ServiceClient,
)
from .janitor import Janitor, JanitorReport
from .knowledge import (
    KnowledgeBase,
    KnowledgeEntry,
    repository_signature,
    transfer_weight,
)
from .lease import Lease, LeaseError, LeaseHeldError, LeaseLostError, LeaseManager
from .service import StepCall, StepOutcome, TenantSpec, TuningService
from .store import CheckpointStore

__all__ = [
    "CHECKPOINT_VERSION",
    "SEGMENT_VERSION",
    "CheckpointError",
    "SegmentError",
    "StaleFenceError",
    "save_checkpoint",
    "load_checkpoint",
    "read_metadata",
    "read_fence",
    "read_segment",
    "count_segment_records",
    "CheckpointStore",
    "DirectoryCache",
    "ServiceClient",
    "FailoverExhaustedError",
    "FailoverPolicy",
    "FrontendUnavailableError",
    "OverloadedError",
    "StepCall",
    "StepOutcome",
    "Janitor",
    "JanitorReport",
    "Lease",
    "LeaseError",
    "LeaseHeldError",
    "LeaseLostError",
    "LeaseManager",
    "KnowledgeBase",
    "KnowledgeEntry",
    "repository_signature",
    "transfer_weight",
    "TuningService",
    "TenantSpec",
]
