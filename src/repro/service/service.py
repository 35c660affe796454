"""Multi-tenant tuning service.

:class:`TuningService` hosts many concurrent tenant sessions behind a
``create / suggest / observe / checkpoint / resume / close`` API:

* **Isolation** — each tenant owns an independent tuner and a private
  checkpoint namespace; tenant ids are validated so no tenant can
  address another's state.  A hosted session produces exactly the
  suggestions an isolated in-process run would.
* **Exclusion** — every hydrated session holds a per-tenant
  :class:`~repro.service.lease.Lease`, heartbeat-renewed on use, so
  several frontends can share one store with exactly one writer per
  tenant; conflicts raise :class:`~repro.service.lease.LeaseHeldError`.
* **Durability** — any tenant can be checkpointed at any point and
  resumed bit-identically, in this process or another one.  With
  ``durability="delta"`` every completed interval is appended to a
  delta segment (a few KB + one fsync) and full snapshots happen only
  every ``snapshot_every`` intervals; rehydration replays
  snapshot + segments to the identical state.
* **Elasticity** — only ``max_live_sessions`` tuners stay hydrated; the
  least-recently-used session is transparently persisted and evicted,
  then rehydrated from the store on its next call.
* **Coalesced stepping** — :meth:`step_batch` runs one round of
  tenant calls (at most one per tenant, as the wire frontend queues
  them) and drains every observing tenant's GP appends through one
  fused cross-tenant kernel evaluation.
* **Starting point** — a tenant created with ``TenantSpec.initial_config``
  starts exploring from its instance's current configuration, where the
  safety threshold τ is measured, exactly as the harness's
  ``TuningSession.run`` starts a session.
* **Knowledge transfer** — closed sessions are indexed by workload
  signature; new tenants warm-start from their nearest neighbors with
  signature-distance weights that decay as native history accumulates.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.base import Feedback, SuggestInput
from ..core.config import OnlineTuneConfig
from ..core.tuner import OnlineTune
from ..knobs.knob import KnobSpace
from ..workloads.base import WorkloadSnapshot
from .checkpoint import CheckpointError
from .knowledge import KnowledgeBase
from .lease import DEFAULT_TTL, Lease, LeaseHeldError, LeaseLostError, LeaseManager
from .store import CheckpointStore

__all__ = ["StepCall", "StepOutcome", "TenantSpec", "TuningService"]

log = logging.getLogger(__name__)

#: takeover-warming cache size: tuners speculatively hydrated for
#: tenants whose lease is about to lapse on a (likely dead) peer
PREHYDRATE_CAPACITY = 4

#: under ``compaction="janitor"`` the hot path still compacts once a
#: chain grows past ``snapshot_every * JANITOR_BACKSTOP_FACTOR`` records
#: — a bound on replay cost if the janitor is down, not a cadence
JANITOR_BACKSTOP_FACTOR = 8


@dataclass(frozen=True)
class TenantSpec:
    """What a tenant provisions: a knob space and tuner configuration.

    ``initial_config`` is the instance's current configuration, the one
    its safety threshold τ is measured at.  The tenant's first
    suggestion is that configuration, and exploration starts from it.
    Without it the tenant starts at the knob space's factory defaults.
    """

    space: str = "mysql57"           # key into experiments.SPACE_FACTORIES
    seed: int = 0
    onlinetune_config: Optional[OnlineTuneConfig] = None
    memory_bytes: Optional[int] = None
    vcpus: Optional[int] = None
    initial_config: Optional[Mapping[str, Any]] = None


@dataclass(frozen=True)
class StepCall:
    """One tenant-addressed call inside a coalesced :meth:`TuningService.
    step_batch` round."""

    tenant_id: str
    method: str                      # create/suggest/observe/checkpoint/...
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class StepOutcome:
    """Result of one :class:`StepCall`: either ``value`` or ``error``."""

    call: StepCall
    value: Any = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _LiveSession:
    tuner: OnlineTune
    lease: Optional[Lease] = None
    dirty_steps: int = 0     # state-advancing calls not yet durable
    observed: int = 0        # completed intervals since the last save
    delta_records: int = 0   # chain records since the last full snapshot
    pending_input: Optional[SuggestInput] = None
    pending_suggests: int = 0    # suggests since the last durable point


class TuningService:
    """Serve many tenant tuning sessions from one process.

    Parameters
    ----------
    root:
        Directory for the checkpoint store, lease files, and the
        knowledge index.
    max_live_sessions:
        How many tuners stay hydrated in memory; beyond this the LRU
        session is persisted to the store and evicted.
    checkpoint_every:
        Snapshot-mode durability cadence: a live session is fully
        checkpointed after this many ``observe`` calls (0 disables
        auto-checkpoints; explicit :meth:`checkpoint` and eviction still
        persist state).  Ignored under ``durability="delta"``, where
        every interval is durable by construction.
    durability:
        ``"snapshot"`` (default) persists full envelopes only;
        ``"delta"`` appends each completed interval to the tenant's
        delta chain and compacts with a full snapshot every
        ``snapshot_every`` intervals.
    snapshot_every:
        Delta-mode compaction cadence, in chain records.
    compaction:
        ``"inline"`` (default) writes the compaction snapshot inside
        ``observe`` once ``snapshot_every`` records accumulate — simple,
        but the ~30 ms envelope write lands on the hot path.
        ``"janitor"`` defers compaction to an idle-time
        :class:`~repro.service.janitor.Janitor` (or explicit
        :meth:`compact_if_due` calls); ``observe`` then only ever pays
        the few-KB delta append, with an inline backstop once a chain
        grows past ``snapshot_every * JANITOR_BACKSTOP_FACTOR`` records.
    lease_ttl / owner:
        Forwarded to the :class:`LeaseManager` guarding tenant writes.
    """

    def __init__(self, root, max_live_sessions: int = 8,
                 checkpoint_every: int = 0,
                 durability: str = "snapshot",
                 snapshot_every: int = 64,
                 compaction: str = "inline",
                 lease_ttl: float = DEFAULT_TTL,
                 owner: Optional[str] = None) -> None:
        if durability not in ("snapshot", "delta"):
            raise ValueError(f"durability must be 'snapshot' or 'delta', "
                             f"not {durability!r}")
        if compaction not in ("inline", "janitor"):
            raise ValueError(f"compaction must be 'inline' or 'janitor', "
                             f"not {compaction!r}")
        self.store = CheckpointStore(root)
        self.knowledge = KnowledgeBase(Path(root) / "knowledge.json")
        self.leases = LeaseManager(Path(root) / "leases", ttl=lease_ttl,
                                   owner=owner)
        self.max_live_sessions = max(1, int(max_live_sessions))
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.durability = durability
        self.snapshot_every = max(1, int(snapshot_every))
        self.compaction = compaction
        self._live: "OrderedDict[str, _LiveSession]" = OrderedDict()
        # takeover-warming: tenant -> (chain fingerprint, tuner, n_records)
        self._prefetched: "OrderedDict[str, Tuple[tuple, OnlineTune, int]]" = (
            OrderedDict())
        self.counters: Dict[str, int] = {
            "takeovers": 0,          # leases won via stale takeover
            "prehydrated": 0,        # speculative chain loads performed
            "prehydrate_hits": 0,    # takeovers served from the warm cache
            "prehydrate_misses": 0,  # warm cache present but stale
            "prehydrate_errors": 0,  # speculative chain loads that failed
            "released": 0,           # tenants let go by shutdown()
            "release_errors": 0,     # tenants shutdown() failed to let go
        }

    # -- bookkeeping -------------------------------------------------------
    def live_tenants(self) -> List[str]:
        return list(self._live)

    def tenants(self) -> List[str]:
        known = set(self.store.tenants()) | set(self._live)
        return sorted(known)

    def directory(self) -> Dict[str, str]:
        """The store's tenant→owner routing hint map (see
        :meth:`CheckpointStore.read_owners`).  Clients bulk-refresh from
        this to pre-route requests to the frontend holding each tenant's
        lease; a stale entry costs one ``lease_held`` redirect, never
        correctness."""
        return self.store.read_owners()

    def _publish_owner(self, tenant_id: str, owner: Optional[str]) -> None:
        """Refresh the directory hint after a lease transition (owner
        string on acquire, None tombstone on clean release)."""
        self.store.publish_owner(tenant_id, owner)

    def _acquire_lease(self, tenant_id: str) -> Lease:
        """Acquire + publish: every lease this frontend wins is announced
        in the directory so clients can pre-route to it.  A stale
        takeover (previous owner crashed or stalled past its TTL) is
        counted and logged — the prompt republish is what lets a
        client's post-death directory refresh converge in one hop."""
        lease = self.leases.acquire(tenant_id)
        if lease.taken_over:
            self.counters["takeovers"] += 1
            log.info("lease takeover: tenant=%s token=%d owner=%s",
                     tenant_id, lease.token, self.leases.owner)
        self._publish_owner(tenant_id, self.leases.owner)
        return lease

    def _admit(self, tenant_id: str, session: _LiveSession) -> None:
        while len(self._live) >= self.max_live_sessions:
            victim, _ = next(iter(self._live.items()))
            self._evict(victim)
        self._live[tenant_id] = session

    def _evict(self, tenant_id: str) -> None:
        session = self._live.pop(tenant_id)
        # a clean session (nothing state-advancing since its last durable
        # point — full snapshot or delta record) is already safe on disk;
        # rewriting it would grow the store on every rehydrate/evict
        # cycle of read-mostly traffic
        if session.dirty_steps:
            self._save(tenant_id, session)
        self._drop_tenant_hold(tenant_id, session)

    def _drop_tenant_hold(self, tenant_id: str, session: _LiveSession) -> None:
        """Release everything that pins this frontend to the tenant: the
        lease *and* any open delta-segment writer.  Once the lease is
        gone another frontend may extend the chain; appending to a
        stale open segment afterwards would corrupt position continuity,
        so the writer must never outlive the lease."""
        self.store.close_segment(tenant_id)
        self._release_lease(session)

    def _release_lease(self, session: _LiveSession) -> None:
        if session.lease is not None:
            tenant_id = session.lease.tenant
            try:
                self.leases.release(session.lease)
            except LeaseLostError:
                # someone legitimately took over; nothing to give up —
                # and no tombstone either, the new owner's directory
                # entry must not be clobbered by our stale release
                pass
            else:
                self._publish_owner(tenant_id, None)
            session.lease = None

    def _ensure_lease(self, tenant_id: str, session: _LiveSession) -> None:
        """Hold-and-heartbeat the tenant's lease for a mutating call.

        A lost lease (expired + taken over) drops the hydrated session —
        its state may be stale relative to the new owner's writes — and
        surfaces the typed error to the caller.
        """
        try:
            if session.lease is None:
                session.lease = self._acquire_lease(tenant_id)
            else:
                session.lease = self.leases.renew_if_due(session.lease)
        except LeaseLostError:
            self._live.pop(tenant_id, None)
            session.lease = None
            self.store.close_segment(tenant_id)
            raise

    def _save(self, tenant_id: str, session: _LiveSession) -> Path:
        path = self.store.save(
            tenant_id, session.tuner,
            metadata={"tuner_class": type(session.tuner).__name__,
                      "n_observations": len(session.tuner.repo)},
            fence=session.lease.token if session.lease else None)
        session.dirty_steps = 0
        session.observed = 0
        session.delta_records = 0
        # any pending suggest is now *inside* the snapshot: the chain must
        # not replay it again (its record logs input=None, observe-only)
        session.pending_input = None
        session.pending_suggests = 0
        return path

    # -- takeover warming ----------------------------------------------------
    def _chain_fingerprint(self, tenant_id: str) -> tuple:
        """Cheap identity of the tenant's durable chain: every artifact's
        (seq, kind, size, mtime_ns), oldest first.  Artifacts only ever
        grow in seq/size, so *any* interleaved write — a new delta, a
        compaction snapshot — changes the fingerprint and safely degrades
        a warm-cache lookup to a miss."""
        parts = []
        for seq, kind, path in self.store.artifacts(tenant_id):
            try:
                st = path.stat()
            except OSError:
                continue
            parts.append((seq, kind, st.st_size, st.st_mtime_ns))
        return tuple(parts)

    def _load_chain(self, tenant_id: str) -> Tuple[OnlineTune, int]:
        """Hydrate a tuner from snapshot + delta chain (replayed)."""
        tuner, _meta, records = self.store.load_latest_chain(tenant_id)
        if not isinstance(tuner, OnlineTune):
            raise CheckpointError(
                f"tenant {tenant_id!r} checkpoint does not hold a tuner")
        if records:
            tuner.replay(records)
        return tuner, len(records)

    def _prehydrate(self, tenant_id: str, retry_after: Optional[float]) -> None:
        """Speculatively hydrate a tenant another frontend still leases.

        Called when this frontend is bounced with ``lease_held``: if the
        holder's lease is into its back half (``retry_after`` small), a
        crashed holder is plausible and *this* frontend may be about to
        take the tenant over — loading the checkpoint chain now moves
        the ~10 ms rehydration off the post-takeover critical path.  The
        cache entry is fingerprinted against the chain's on-disk state
        and discarded on any mismatch, so a holder that was merely slow
        (and kept writing) costs a miss, never staleness.  Best-effort
        throughout: a failure is logged and counted in
        ``counters["prehydrate_errors"]``, and never masks the
        LeaseHeldError the caller is about to surface.
        """
        if retry_after is None or retry_after > 0.5 * self.leases.ttl:
            return                       # holder heartbeating normally
        if tenant_id in self._prefetched:
            return
        try:
            fingerprint = self._chain_fingerprint(tenant_id)
            if not fingerprint:
                return
            tuner, n_records = self._load_chain(tenant_id)
        except Exception:
            log.exception("prehydrate failed: tenant=%s", tenant_id)
            self.counters["prehydrate_errors"] += 1
            return
        while len(self._prefetched) >= PREHYDRATE_CAPACITY:
            self._prefetched.popitem(last=False)
        self._prefetched[tenant_id] = (fingerprint, tuner, n_records)
        self.counters["prehydrated"] += 1

    def _session(self, tenant_id: str) -> _LiveSession:
        """The tenant's hydrated session, rehydrating from the store on a
        miss (the LRU may have evicted it)."""
        self.store.validate_tenant_id(tenant_id)
        session = self._live.get(tenant_id)
        if session is not None:
            self._live.move_to_end(tenant_id)
            return session
        if self.store.latest_path(tenant_id) is None:
            raise KeyError(f"unknown tenant {tenant_id!r}: call create() first")
        try:
            lease = self._acquire_lease(tenant_id)
        except LeaseHeldError as exc:
            # bounced — but if the holder looks dead (lease near lapse),
            # warm this tenant's chain for the takeover we may win next
            self._prehydrate(tenant_id, exc.retry_after)
            raise
        try:
            cached = self._prefetched.pop(tenant_id, None)
            if (cached is not None
                    and cached[0] == self._chain_fingerprint(tenant_id)):
                tuner, n_records = cached[1], cached[2]
                self.counters["prehydrate_hits"] += 1
            else:
                if cached is not None:
                    self.counters["prehydrate_misses"] += 1
                tuner, n_records = self._load_chain(tenant_id)
        except BaseException:
            self.leases.release(lease)
            raise
        session = _LiveSession(tuner=tuner, lease=lease,
                               delta_records=n_records)
        self._admit(tenant_id, session)
        return session

    # -- lifecycle API --------------------------------------------------------
    def create(self, tenant_id: str, spec: Optional[TenantSpec] = None,
               warm_start_neighbors: int = 0,
               probe_snapshot: Optional[WorkloadSnapshot] = None) -> OnlineTune:
        """Provision a new tenant session.

        With ``spec.initial_config`` the tuner starts at that
        configuration (``OnlineTune.start``) before the birth snapshot,
        so the starting point is durable; a configuration naming an
        unknown knob, or a value its knob would clip, raises
        ``ValueError`` before anything is written.  With
        ``warm_start_neighbors > 0`` and a ``probe_snapshot`` of the
        tenant's workload, the knowledge base seeds the fresh repository
        from the nearest indexed sessions before the first suggest.
        """
        self.store.validate_tenant_id(tenant_id)
        spec = spec or TenantSpec()
        from ..harness.experiments import SPACE_FACTORIES
        space = SPACE_FACTORIES[spec.space]()
        if spec.initial_config is not None:
            _check_initial_config(space, spec.initial_config)
        # reject before touching the lease: a reentrant acquire for a
        # tenant this frontend already has live would otherwise be
        # released (unlinked) on the error path, orphaning the live
        # session's lease and silently breaking exactly-one-writer
        if tenant_id in self._live or self.store.latest_path(tenant_id):
            raise ValueError(f"tenant {tenant_id!r} already exists")
        lease = self._acquire_lease(tenant_id)
        try:
            if self.store.latest_path(tenant_id):   # raced another frontend
                raise ValueError(f"tenant {tenant_id!r} already exists")
            kwargs = {}
            if spec.memory_bytes is not None:
                kwargs["memory_bytes"] = spec.memory_bytes
            if spec.vcpus is not None:
                kwargs["vcpus"] = spec.vcpus
            tuner = OnlineTune(space, config=spec.onlinetune_config,
                               seed=spec.seed, **kwargs)
            if spec.initial_config is not None:
                # OnlineTune.start reads only the configuration
                tuner.start(dict(spec.initial_config), math.nan)
            if warm_start_neighbors > 0 and probe_snapshot is not None:
                # featurize the probe on a scratch copy so the live
                # featurizer's warm-up state is untouched (isolation: a
                # warm-started tenant still featurizes its own stream
                # from zero)
                import copy
                probe_context = copy.deepcopy(tuner.featurizer).featurize(
                    probe_snapshot)
                self.knowledge.warm_start(tuner, probe_context,
                                          k=warm_start_neighbors,
                                          exclude=(tenant_id,))
            session = _LiveSession(tuner=tuner, lease=lease)
        except BaseException:
            self.leases.release(lease)
            raise
        self._admit(tenant_id, session)
        self._save(tenant_id, session)   # durable from birth
        return tuner

    def suggest(self, tenant_id: str, inp: SuggestInput):
        """Next configuration for one tenant interval."""
        session = self._session(tenant_id)
        self._ensure_lease(tenant_id, session)
        config = session.tuner.suggest(inp)
        session.dirty_steps += 1     # rng/pending state advanced
        session.pending_input = inp
        session.pending_suggests += 1
        return config

    def observe(self, tenant_id: str, feedback: Feedback) -> None:
        """Report a tenant interval's outcome."""
        session = self._session(tenant_id)
        self._ensure_lease(tenant_id, session)
        session.tuner.observe(feedback)
        session.dirty_steps += 1
        session.observed += 1
        if self.durability == "delta":
            self._append_delta(tenant_id, session, feedback)
        elif self.checkpoint_every and session.observed >= self.checkpoint_every:
            self._save(tenant_id, session)
        session.pending_input = None
        session.pending_suggests = 0

    def _append_delta(self, tenant_id: str, session: _LiveSession,
                      feedback: Feedback) -> None:
        """Make the just-completed interval durable on the delta chain.

        An interval is replayable when at most one suggest happened since
        the last durable point: either its input is in the record (replay
        = suggest + observe) or the suggest state is already inside the
        base snapshot / a bare observe (input None, replay = observe
        only).  Anything else — e.g. a client that called suggest twice
        and discarded one — advanced tuner state the log cannot
        reproduce, so those rare cases fall back to a full snapshot.
        """
        if session.pending_suggests <= 1:
            record = {"input": session.pending_input, "feedback": feedback}
            self.store.save_delta(
                tenant_id, record, position=len(session.tuner.repo),
                fence=session.lease.token if session.lease else None)
            session.delta_records += 1
            session.dirty_steps = 0      # durable via the chain
            if session.delta_records >= self._compaction_threshold():
                self._save(tenant_id, session)   # compaction snapshot
        else:
            self._save(tenant_id, session)

    def _compaction_threshold(self) -> int:
        """Chain length at which ``observe`` itself compacts: the normal
        cadence inline, only the janitor-down backstop otherwise."""
        if self.compaction == "inline":
            return self.snapshot_every
        return self.snapshot_every * JANITOR_BACKSTOP_FACTOR

    def compact_if_due(self, tenant_id: str) -> Optional[Path]:
        """Compact the tenant's delta chain into a snapshot if it has
        reached ``snapshot_every`` records; returns the snapshot path or
        None when nothing was due.

        This is the idle-time entry point ``compaction="janitor"``
        defers to: a frontend calls it (directly or via a
        :class:`~repro.service.janitor.Janitor`) for its *live* tenants
        between intervals, so the envelope write happens off the
        suggest/observe hot path but under the session's own lease — no
        handoff, no second writer.  Evicted/offline tenants are instead
        compacted by the janitor under its own lease.
        """
        self.store.validate_tenant_id(tenant_id)
        session = self._live.get(tenant_id)
        if session is None or session.delta_records < self.snapshot_every:
            return None
        self._ensure_lease(tenant_id, session)
        return self._save(tenant_id, session)

    def checkpoint(self, tenant_id: str) -> Path:
        """Persist a full snapshot of the tenant's current state (ends any
        open delta chain); returns the checkpoint path."""
        session = self._session(tenant_id)
        self._ensure_lease(tenant_id, session)
        return self._save(tenant_id, session)

    def resume(self, tenant_id: str) -> OnlineTune:
        """Force-rehydrate a tenant from its latest durable state.

        Discards any in-memory progress that is not yet on disk — the
        explicit crash-recovery path.  Under delta durability every
        completed interval is durable, so this replays snapshot + chain;
        under snapshot durability it rewinds to the last checkpoint.
        Normal callers never need this; the LRU rehydrates transparently.
        """
        self.store.validate_tenant_id(tenant_id)
        stale = self._live.pop(tenant_id, None)
        if stale is not None:
            self._drop_tenant_hold(tenant_id, stale)
        return self._session(tenant_id).tuner

    def close(self, tenant_id: str, register_knowledge: bool = True) -> Path:
        """Final-checkpoint a tenant, index it, and release its memory."""
        session = self._session(tenant_id)
        self._ensure_lease(tenant_id, session)
        # a clean session is already durable — don't append a duplicate
        # checkpoint on every close/reopen cycle (mirrors _evict); a
        # delta-durable tail still gets compacted into a final snapshot
        if session.dirty_steps or session.delta_records:
            path = self._save(tenant_id, session)
        else:
            path = self.store.latest_path(tenant_id)
        if register_knowledge:
            self.knowledge.register(tenant_id, session.tuner, path)
        self._live.pop(tenant_id, None)
        self._drop_tenant_hold(tenant_id, session)
        return path

    def shutdown(self) -> None:
        """Evict every live tenant (persist if dirty, close its segment
        writer, release its lease, tombstone its directory entry), so a
        restarted frontend is not refused for the lease TTL.  Failures
        are logged and counted; the other tenants are still released."""
        for tenant_id in list(self._live):
            try:
                self._evict(tenant_id)
            except Exception:
                log.exception("shutdown: releasing tenant=%s failed",
                              tenant_id)
                self.counters["release_errors"] += 1
            else:
                self.counters["released"] += 1

    # -- coalesced interactive stepping ---------------------------------------
    #: methods a StepCall may invoke — the tenant API surface, nothing else
    STEP_METHODS = ("create", "suggest", "observe", "checkpoint", "resume",
                    "close", "compact_if_due")

    def step_batch(self, calls: Sequence[StepCall]
                   ) -> Tuple[List[StepOutcome], Dict[str, int]]:
        """Execute one coalesced round of interactive tenant calls.

        The wire frontend's per-tenant request queues drain through here:
        each round holds *at most one call per tenant* (the queues
        preserve per-tenant FIFO order), so a round steps every tenant
        with pending work by one call.  Calls execute sequentially under
        their tenants' leases exactly as the direct API would; afterwards
        every live tenant that just observed has its pending GP appends
        drained through one fused cross-tenant kernel GEMM
        (:func:`repro.gp.batching.execute_appends`), so N
        concurrent observe streams cost one stacked kernel evaluation
        per round instead of N lazy per-tenant absorptions.  Staged
        draining is restricted to rows the lazy path would absorb
        anyway, so coalesced trajectories stay bit-identical to direct
        per-call use (the transport equivalence suite asserts this).

        Per-call failures (lease conflicts, unknown tenants, bad
        arguments) are captured in the returned :class:`StepOutcome`
        rather than aborting the round — one contended tenant must not
        fail its neighbors' calls.  Returns the outcomes aligned with
        ``calls`` plus fusion counters (``requests``/``rows``/``fused``/
        ``groups``).
        """
        outcomes: List[StepOutcome] = []
        observed: List[str] = []
        for call in calls:
            if call.method not in self.STEP_METHODS:
                outcomes.append(StepOutcome(call=call, error=ValueError(
                    f"unknown step method {call.method!r}")))
                continue
            try:
                value = getattr(self, call.method)(
                    call.tenant_id, *call.args, **call.kwargs)
            except Exception as exc:   # typed per-call failure, not fatal
                outcomes.append(StepOutcome(call=call, error=exc))
            else:
                outcomes.append(StepOutcome(call=call, value=value))
                if call.method == "observe":
                    observed.append(call.tenant_id)
        stats = {"requests": 0, "rows": 0, "fused": 0, "groups": 0}
        requests = []
        for tenant_id in observed:
            # drain right after observe, inside the same lease tenure the
            # observe renewed (mirrors TuningSession.run's solo drain)
            session = self._live.get(tenant_id)
            if session is not None:
                requests.extend(session.tuner.stage_appends())
        if requests:
            from ..gp.batching import execute_appends
            round_stats = execute_appends(requests)
            for key in stats:
                stats[key] += round_stats[key]
        return outcomes, stats


def _check_initial_config(space: KnobSpace,
                          config: Mapping[str, Any]) -> None:
    """Reject a starting configuration the knob space would alter: a
    knob it does not have, or a value its knob would clip."""
    if not isinstance(config, Mapping):
        raise ValueError(f"initial_config must map knob names to values, "
                         f"not {type(config).__name__}")
    unknown = sorted(str(name) for name in config if name not in space)
    if unknown:
        raise ValueError(f"initial_config names unknown knobs: {unknown}")
    for name, value in config.items():
        try:
            legal = space[name].clip(value) == value
        except (TypeError, ValueError, OverflowError):
            legal = False
        if not legal:
            raise ValueError(f"initial_config value {value!r} is not a "
                             f"legal setting of knob {name!r}")
