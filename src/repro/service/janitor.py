"""Idle-time janitor: compaction and retention off the serving hot path.

Under ``durability="delta"`` every ``observe`` appends a few-KB record;
the expensive part — replacing a long chain with a fresh ~MB snapshot —
used to ride the same call once ``snapshot_every`` records accumulated.
The janitor moves that write (and :meth:`CheckpointStore.prune`) onto a
background cadence:

* **Lease-safe** — the janitor is just another lease owner.  It touches
  a tenant only after winning that tenant's lease, so it can never race
  a live frontend: a held lease means the tenant is being served and is
  skipped this sweep (its own frontend compacts it via
  :meth:`TuningService.compact_if_due` between intervals).  While the
  janitor holds the lease, a frontend arriving mid-compaction gets an
  ordinary :class:`LeaseHeldError` — which the client SDK waits out
  with backoff, exactly like any other held lease.
* **Fenced** — the janitor writes its compaction snapshot under its
  lease's fencing token, so its takeover of a crashed frontend's tenant
  advances the store fence and the dead frontend's zombie writes are
  rejected at the store.
* **Cheap probing** — chain length is counted from segment framing
  without unpickling (:meth:`CheckpointStore.chain_length`), so a sweep
  over mostly-idle tenants costs directory walks, not deserialization.
* **Sharded** — in an N-frontend fleet every process runs a janitor,
  and without coordination they all probe (and lease-bounce off) the
  same tenants.  A janitor with ``shard_index``/``shard_count`` owns
  only the tenants at ``position % shard_count == shard_index`` in the
  sorted tenant namespace (``serve --shard-index/--shard-count`` hands
  each frontend's janitor its stride) and *skips out-of-shard tenants
  before any lease probe*, so N janitors sweep N disjoint slices with
  zero lease round-trips wasted on each other's territory.

``run_once()`` is the deterministic unit the tests drive; ``start()``
runs it on a background thread until ``stop()``.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.tuner import OnlineTune
from .checkpoint import CheckpointError
from .lease import DEFAULT_TTL, LeaseHeldError, LeaseLostError, LeaseManager
from .store import CheckpointStore

__all__ = ["Janitor", "JanitorReport"]

log = logging.getLogger(__name__)


def shard_coordinates(shard_index: int, shard_count: int) -> Tuple[int, int]:
    """``(shard_index, shard_count)`` as ints; ``ValueError`` unless
    ``0 <= shard_index < shard_count``.  A wrapped index would sweep
    another shard's slice twice and leave its own unswept."""
    index, count = int(shard_index), int(shard_count)
    if not 0 <= index < count:
        raise ValueError(f"shard_index must be in [0, shard_count), "
                         f"got {shard_index} of {shard_count}")
    return index, count


@dataclass
class JanitorReport:
    """What one sweep did (and declined to do)."""

    compacted: List[str] = field(default_factory=list)
    pruned: Dict[str, int] = field(default_factory=dict)   # tenant -> files
    skipped_leased: List[str] = field(default_factory=list)
    skipped_errors: Dict[str, str] = field(default_factory=dict)
    skipped_out_of_shard: int = 0   # another janitor's territory: no probe
    republished: Dict[str, Optional[str]] = field(default_factory=dict)
    # tenant -> corrected directory owner (None = tombstoned dead entry)

    def touched(self) -> int:
        return len(self.compacted) + len(self.pruned)


class Janitor:
    """Sweep a service root: compact due delta chains, prune old
    restore points.

    Parameters
    ----------
    root:
        The service state directory (same ``root`` the
        :class:`~repro.service.service.TuningService` frontends use).
    snapshot_every:
        Chains with at least this many replay records are compacted.
    prune_keep:
        Snapshots retained per tenant (forwarded to
        :meth:`CheckpointStore.prune`); 0 disables pruning.
    lease_ttl / owner:
        The janitor's own lease identity.  The TTL bounds how long a
        crashed janitor can block a tenant's frontends.
    interval:
        Background cadence for :meth:`start`, seconds.
    shard_index / shard_count:
        This janitor's slice of the tenant namespace: it sweeps only
        tenants at sorted position ``p`` with
        ``p % shard_count == shard_index``, so k janitors sweep k
        disjoint slices that together cover the namespace.
        Out-of-shard tenants are counted and skipped
        *before* any lease probe.  ``ValueError`` unless
        ``0 <= shard_index < shard_count``.  Defaults to one shard =
        the whole namespace (PR 7 behavior).
    """

    def __init__(self, root, snapshot_every: int = 64, prune_keep: int = 3,
                 lease_ttl: float = DEFAULT_TTL,
                 owner: Optional[str] = None,
                 interval: float = 5.0,
                 shard_index: int = 0, shard_count: int = 1) -> None:
        self.shard_index, self.shard_count = shard_coordinates(
            shard_index, shard_count)
        self.root = Path(root)
        self.store = CheckpointStore(self.root)
        owner = owner or (f"janitor:{socket.gethostname()}:{os.getpid()}:"
                          f"{uuid.uuid4().hex[:8]}")
        self.leases = LeaseManager(self.root / "leases", ttl=lease_ttl,
                                   owner=owner)
        self.snapshot_every = max(1, int(snapshot_every))
        self.prune_keep = int(prune_keep)
        self.interval = float(interval)
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # lifetime counters across sweeps (serve's shutdown line reports
        # them; cross_shard stays 0 under sharding)
        self.sweeps = 0
        self.total_compacted = 0
        self.total_pruned = 0
        self.total_skipped_out_of_shard = 0
        self.total_cross_shard = 0
        self.total_republished = 0
        self.total_failed_sweeps = 0     # sweeps that raised (logged)

    # -- one sweep -----------------------------------------------------------
    def run_once(self) -> JanitorReport:
        """Sweep this shard's tenants once; lease conflicts are skips,
        not errors, and out-of-shard tenants are never lease-probed."""
        report = JanitorReport()
        tenants = self.store.tenants()       # sorted: stride is stable
        assigned = [t for position, t in enumerate(tenants)
                    if position % self.shard_count == self.shard_index]
        # another janitor's slice: skipped before any lease probe —
        # probing there is exactly the wasted round-trip the sharding
        # exists to remove
        report.skipped_out_of_shard = len(tenants) - len(assigned)
        for tenant_id in assigned:
            try:
                self._sweep_tenant(tenant_id, report)
            except LeaseHeldError:
                report.skipped_leased.append(tenant_id)
            except LeaseLostError as exc:
                # the sweep outlived its own lease TTL and a frontend
                # took the tenant over mid-compaction (surfaced by
                # holding()'s release); the takeover is legitimate —
                # record it and keep sweeping the rest of the fleet
                report.skipped_errors[tenant_id] = f"lease lost: {exc}"
            except CheckpointError as exc:
                # a corrupt tenant is an operator problem, not a janitor
                # crash: record it and keep sweeping the fleet
                report.skipped_errors[tenant_id] = str(exc)
        self._reconcile_directory(assigned, report)
        self.sweeps += 1
        self.total_compacted += len(report.compacted)
        self.total_pruned += len(report.pruned)
        self.total_skipped_out_of_shard += report.skipped_out_of_shard
        # regression tripwire: anything touched outside the computed
        # slice means the sharding broke
        touched = set(report.compacted) | set(report.pruned)
        self.total_cross_shard += len(touched - set(assigned))
        self.total_republished += len(report.republished)
        return report

    def _reconcile_directory(self, assigned: List[str],
                             report: JanitorReport) -> None:
        """Re-align published directory hints with lease-file truth.

        A crashed frontend leaves its directory entries pointing at a
        corpse until its tenants are next touched.  Each sweep compares
        this shard's published hints against the authoritative lease
        files: a live lease held by someone else gets its real owner
        republished, and an expired/vanished lease gets a tombstone — so
        a client's post-death ``refresh_directory()`` converges even for
        tenants nobody has re-acquired yet.  Best-effort, hint-only:
        ``publish_owner`` already swallows OS errors, and a hint that
        goes stale again a moment later just costs one redirect.
        """
        published = self.store.read_owners()
        for tenant_id in assigned:
            hinted = published.get(tenant_id)
            if hinted is None:
                continue                   # no hint to correct
            record = self.leases.holder(tenant_id)
            if record is not None and record.get("live"):
                actual = record.get("owner")
                if actual != hinted:
                    self.store.publish_owner(tenant_id, actual)
                    report.republished[tenant_id] = actual
            else:
                # lease expired or vanished: the hinted owner is dead
                # (or released uncleanly) — tombstone the stale hint
                self.store.publish_owner(tenant_id, None)
                report.republished[tenant_id] = None

    def _sweep_tenant(self, tenant_id: str, report: JanitorReport) -> None:
        due_compact = (self.store.chain_length(tenant_id)
                       >= self.snapshot_every)
        due_prune = (self.prune_keep > 0
                     and len(self.store.list(tenant_id)) > self.prune_keep)
        if not due_compact and not due_prune:
            return
        with self.leases.holding(tenant_id) as lease:
            if due_compact:
                # re-check under the lease: a frontend may have compacted
                # (or extended) the chain between probe and acquisition
                if self.store.chain_length(tenant_id) >= self.snapshot_every:
                    self._compact(tenant_id, fence=lease.token)
                    report.compacted.append(tenant_id)
            if self.prune_keep > 0:
                removed = self.store.prune(tenant_id, keep=self.prune_keep)
                if removed:
                    report.pruned[tenant_id] = removed
            # the store handle must not keep a writer for a tenant we no
            # longer hold (mirrors TuningService._drop_tenant_hold)
            self.store.close_segment(tenant_id)

    def _compact(self, tenant_id: str, fence: int) -> Path:
        """Replay snapshot+chain and write the result as a new snapshot —
        byte-for-byte the state a frontend would rehydrate, so the swap
        is invisible to the next reader."""
        payload, meta, records = self.store.load_latest_chain(tenant_id)
        if not isinstance(payload, OnlineTune):
            raise CheckpointError(
                f"tenant {tenant_id!r} checkpoint does not hold a tuner; "
                f"janitor cannot replay its chain")
        if records:
            payload.replay(records)
        return self.store.save(
            tenant_id, payload,
            metadata={"tuner_class": type(payload).__name__,
                      "n_observations": len(payload.repo),
                      "compacted_by": self.leases.owner},
            fence=fence)

    # -- background cadence --------------------------------------------------
    def start(self) -> None:
        """Run :meth:`run_once` every ``interval`` seconds on a daemon
        thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("janitor already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.run_once()
                except Exception:  # noqa: BLE001 - sweep must outlive faults
                    log.exception("janitor sweep failed")
                    self.total_failed_sweeps += 1

        self._thread = threading.Thread(target=loop, name="repro-janitor",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None
