"""Thin client SDK: lease-aware routing and failover across a fleet.

A fleet deployment runs N :class:`~repro.service.service.TuningService`
frontends over one shared store; exactly one frontend holds a tenant's
lease at a time.  A client that addresses the wrong frontend gets a
:class:`~repro.service.lease.LeaseHeldError` — previously a dead end.
:class:`ServiceClient` turns it into a redirect:

* **Discovery** — the error (and the lease file it mirrors) carries the
  *owner identity* of the holding frontend; the client maps that
  identity back to a frontend and retries there.
* **Affinity** — the frontend that last served a tenant is tried first,
  so a stable tenant costs zero extra hops.
* **Bounded failover** — every redirect/retry consumes one unit of a
  per-call failover budget, and each attempt backs off with full
  jitter (``uniform(0, base * 2^attempt)``, capped), so a contended
  tenant degrades into bounded, de-synchronized retries instead of a
  stampede.  An exhausted budget raises :class:`FailoverExhaustedError`
  with the last lease error chained.
* **Lost leases** — a frontend that lost its own lease mid-session
  raises :class:`~repro.service.lease.LeaseLostError`; the client
  retries the same frontend once (it rehydrates or surfaces the new
  holder via ``LeaseHeldError``), then follows the redirect.
* **Overload** — a frontend shedding load answers
  :class:`OverloadedError` with a ``retry_after`` hint; the client
  honors the hint inside the same jittered-backoff budget, so a
  saturated frontend sees bounded, spread-out retries rather than an
  immediate re-send.
* **Frontend death** — a connection refused/reset/EOF surfaces as the
  typed :class:`FrontendUnavailableError` (never a raw
  ``ConnectionError``).  The failing frontend is marked dead in the
  :class:`DirectoryCache`, the directory is re-fetched from a
  *surviving* frontend, and the call re-routes — to the refreshed
  owner hint, otherwise to the next surviving frontend in probe
  order — all inside the same bounded budget.  A ``lease_held``
  redirect that names a *dead* holder is a wait, not a redirect: the
  client stays put and rides out the corpse's lease TTL (the
  ``retry_after`` hint, capped) until a survivor takes the tenant
  over.

The routing/backoff decisions live in :class:`FailoverPolicy`, a pure
(sans-I/O) state machine shared by this in-process client and the wire
clients in :mod:`repro.service.transport.client` — frontends here are
in-process ``TuningService`` objects, but every decision uses only what
the wire protocol carries (owner identity, typed errors, retry hints),
so the same logic fronts a TCP stub unchanged.

* **Pre-routing** — the policy carries a :class:`DirectoryCache`, a
  client-side tenant→owner hint map fed from three sources: bulk
  refreshes of the store-published lease-holder directory
  (:meth:`ServiceClient.refresh_directory`), holders named by
  ``LeaseHeldError`` redirects, and the frontend that last completed a
  call.  Routing consults it before falling back to the first frontend,
  which turns the cold first hop from *probe and bounce* into a direct
  hit.  The cache is a hint, never an authority: a stale entry routes
  the call to a frontend that answers ``lease_held`` with the real
  holder, and the ordinary redirect path converges — exactly the
  staleness story of the directory sidecar itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .lease import LeaseError, LeaseHeldError, LeaseLostError
from .service import TuningService

__all__ = ["DirectoryCache", "FailoverDecision", "FailoverExhaustedError",
           "FailoverPolicy", "FrontendUnavailableError", "OverloadedError",
           "RETRYABLE_CALL_ERRORS", "ServiceClient"]

#: per-call redirect/retry budget
DEFAULT_FAILOVER_BUDGET = 4
#: first-attempt backoff ceiling, seconds (full jitter, doubles per attempt)
DEFAULT_BACKOFF_BASE = 0.02
#: hard backoff ceiling, seconds
DEFAULT_BACKOFF_CAP = 0.5


class FailoverExhaustedError(LeaseError):
    """The failover budget ran out before any frontend accepted the call.

    The last :class:`LeaseHeldError`/:class:`LeaseLostError`/
    :class:`OverloadedError` is chained as ``__cause__``; ``attempts``
    records how many calls were made.
    """

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


class OverloadedError(RuntimeError):
    """A frontend shed this request because its queues are full.

    ``retry_after`` is the frontend's hint (seconds) for when capacity
    is likely to free up.  Raised by the wire transport when the server
    answers ``RETRY_AFTER``; any in-process frontend wrapper may raise
    it too — :class:`FailoverPolicy` treats it as a same-frontend retry
    that consumes failover budget and honors the hint.
    """

    def __init__(self, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class FrontendUnavailableError(RuntimeError):
    """A frontend is unreachable: connection refused, reset, or EOF.

    Raised by the wire stubs (and any in-process wrapper simulating a
    crash) instead of leaking the raw socket exception.  ``owner`` is
    the dead frontend's lease-owner identity when known — the failover
    path uses it to mark the frontend dead in the
    :class:`DirectoryCache` so no further call routes there.
    """

    def __init__(self, message: str, owner: Optional[str] = None) -> None:
        super().__init__(message)
        self.owner = owner


#: every typed error a client call absorbs into the failover loop — the
#: wire transport re-exports this so both client flavors stay in sync
RETRYABLE_CALL_ERRORS = (LeaseHeldError, LeaseLostError, OverloadedError,
                         FrontendUnavailableError)


class DirectoryCache:
    """Client-side tenant→owner hint map (sans-I/O).

    Mirrors the store-published lease-holder directory on the client:
    ``lookup`` answers *which frontend probably holds this tenant's
    lease right now*.  Entries are hints — the lease file is the
    authority — so a wrong answer costs one redirect, never
    correctness.  Fed by :meth:`update` (bulk ``directory`` op
    refreshes), :meth:`record` (holders learned from ``LeaseHeldError``
    redirects and from successful calls), and pruned by
    :meth:`invalidate`.

    The cache also tracks *dead* owners: a frontend that answered a
    call with connection refused/reset/EOF is marked with
    :meth:`mark_dead` and :meth:`lookup` stops returning hints naming
    it — routing to a corpse is the one hint that cannot self-correct
    via a redirect.  A later successful call to that owner identity
    (:meth:`mark_alive`) lifts the mark.
    """

    def __init__(self) -> None:
        self._owners: Dict[str, str] = {}
        self._dead: set = set()

    def lookup(self, tenant_id: str) -> Optional[str]:
        owner = self._owners.get(tenant_id)
        if owner is None or owner in self._dead:
            return None
        return owner

    def record(self, tenant_id: str, owner: Optional[str]) -> None:
        """Learn one tenant's owner; ``None`` clears the entry."""
        if owner is None:
            self._owners.pop(tenant_id, None)
        else:
            self._owners[tenant_id] = owner

    def invalidate(self, tenant_id: str) -> None:
        self._owners.pop(tenant_id, None)

    def update(self, owners: Dict[str, Optional[str]]) -> int:
        """Bulk-merge a directory snapshot; returns entries now cached."""
        for tenant_id, owner in owners.items():
            self.record(tenant_id, owner)
        return len(self._owners)

    # -- frontend liveness ---------------------------------------------------
    def mark_dead(self, owner: str) -> None:
        """Stop returning hints that name this owner (its frontend is
        unreachable); entries are kept so a revival restores them."""
        self._dead.add(owner)

    def mark_alive(self, owner: str) -> None:
        self._dead.discard(owner)

    def is_dead(self, owner: Optional[str]) -> bool:
        return owner is not None and owner in self._dead

    def dead_owners(self) -> set:
        return set(self._dead)

    def __len__(self) -> int:
        return len(self._owners)


@dataclass(frozen=True)
class FailoverDecision:
    """One retry decision from :class:`FailoverPolicy.on_error`.

    ``holder`` is the owner identity to redirect to (None = no redirect
    information; stay on the current frontend), ``delay`` the seconds to
    back off before the next attempt.  ``refresh`` is True when the
    frontend just died: the caller should re-fetch the directory from a
    surviving frontend and re-route before retrying.
    """

    holder: Optional[str]
    delay: float
    refresh: bool = False


class FailoverPolicy:
    """Sans-I/O failover state machine shared by every client flavor.

    Encapsulates the budget, the full-jitter backoff schedule, and the
    translation of a typed service error into a :class:`FailoverDecision`.
    Callers own the I/O: mapping a holder identity to a frontend,
    sleeping (sync or ``await``), and re-issuing the call.
    """

    def __init__(self, max_failovers: int = DEFAULT_FAILOVER_BUDGET,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 seed: Optional[int] = None) -> None:
        self.max_failovers = max(0, int(max_failovers))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._rng = random.Random(seed)
        self.directory = DirectoryCache()

    def begin(self, tenant_id: str, method: str) -> "FailoverState":
        """Fresh per-call budget/backoff state."""
        return FailoverState(self, tenant_id, method)

    def _backoff(self, attempt: int) -> float:
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return self._rng.uniform(0.0, ceiling)


class FailoverState:
    """Per-call budget/attempt tracking (produced by :meth:`FailoverPolicy.
    begin`)."""

    def __init__(self, policy: FailoverPolicy, tenant_id: str,
                 method: str) -> None:
        self._policy = policy
        self._tenant_id = tenant_id
        self._method = method
        self._budget = policy.max_failovers
        self.attempt = 0

    def on_error(self, exc: Exception) -> FailoverDecision:
        """Account one failed attempt; decide the next one.

        Raises :class:`FailoverExhaustedError` (chaining ``exc``) once
        the budget is spent.  Otherwise returns the redirect target (the
        holder identity for a :class:`LeaseHeldError` that names one)
        and the backoff delay — full jitter, raised to at least the
        server's ``retry_after`` hint (capped) when the error carries
        one.
        """
        if self._budget <= 0:
            raise FailoverExhaustedError(
                f"tenant {self._tenant_id!r}: {self._method} failed after "
                f"{self.attempt + 1} attempt(s) across the fleet "
                f"(budget {self._policy.max_failovers} exhausted)",
                attempts=self.attempt + 1) from exc
        self._budget -= 1
        delay = self._policy._backoff(self.attempt)
        hint = getattr(exc, "retry_after", None)
        directory = self._policy.directory
        holder: Optional[str] = None
        refresh = False
        if isinstance(exc, FrontendUnavailableError):
            # the frontend died under us: never route there again, and
            # tell the caller to re-learn the directory from a survivor
            if exc.owner is not None:
                directory.mark_dead(exc.owner)
            directory.invalidate(self._tenant_id)
            refresh = True
        elif isinstance(exc, OverloadedError) and hint is not None:
            delay = max(delay, min(float(hint), self._policy.backoff_cap))
        elif isinstance(exc, LeaseHeldError):
            holder = exc.holder
            if holder is not None:
                # a lease_held redirect names the true holder — fold it
                # into the directory cache so the *next* call pre-routes
                directory.record(self._tenant_id, holder)
                if directory.is_dead(holder):
                    # the lease belongs to a corpse: redirecting is
                    # pointless — stay put and ride out the remaining
                    # TTL (the hint, capped) until a survivor takes over
                    holder = None
                    if hint is not None:
                        delay = max(delay,
                                    min(float(hint),
                                        self._policy.backoff_cap))
        self.attempt += 1
        return FailoverDecision(holder=holder, delay=delay, refresh=refresh)


class ServiceClient:
    """Route tenant calls across a fleet of service frontends.

    Parameters
    ----------
    frontends:
        The fleet.  Each frontend is keyed by its lease-owner identity
        (``frontend.leases.owner``) — the same string lease files (and
        :class:`LeaseHeldError`) report, which is what makes redirects
        possible.  In-process :class:`TuningService` objects and wire
        stubs (:class:`~repro.service.transport.client.RemoteFrontend`)
        expose the same surface and mix freely.
    max_failovers:
        Redirect/retry budget per client call.
    backoff_base / backoff_cap:
        Full-jitter backoff: attempt ``k`` sleeps
        ``uniform(0, min(cap, base * 2**k))`` seconds.
    seed:
        Seeds the jitter RNG (deterministic tests).
    sleep:
        Injection point for the backoff sleep (tests pass a no-op).
    """

    def __init__(self, frontends: Iterable[TuningService],
                 max_failovers: int = DEFAULT_FAILOVER_BUDGET,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 seed: Optional[int] = None,
                 sleep=time.sleep) -> None:
        self._frontends = list(frontends)
        if not self._frontends:
            raise ValueError("a ServiceClient needs at least one frontend")
        self._by_owner: Dict[str, TuningService] = {
            fe.leases.owner: fe for fe in self._frontends}
        if len(self._by_owner) != len(self._frontends):
            raise ValueError("frontends must have distinct lease-owner "
                             "identities")
        self.policy = FailoverPolicy(max_failovers=max_failovers,
                                     backoff_base=backoff_base,
                                     backoff_cap=backoff_cap, seed=seed)
        self._sleep = sleep
        self._affinity: Dict[str, TuningService] = {}
        self.redirects = 0           # lifetime counters (observability)
        self.retries = 0
        self.first_hop_hits = 0      # calls whose first attempt landed
        self.first_hop_misses = 0    # calls that needed >= 1 more hop
        self.frontend_deaths = 0     # FrontendUnavailableError absorbed
        self.directory_refreshes = 0  # death-triggered directory re-fetches

    @property
    def max_failovers(self) -> int:
        return self.policy.max_failovers

    # -- routing -------------------------------------------------------------
    def _route(self, tenant_id: str) -> TuningService:
        """Affinity, else the directory's owner hint, else the first
        surviving frontend (the PR 7 probe-first cold path).  Hints and
        affinity naming a dead frontend are skipped — routing to a
        corpse is the one mistake a redirect cannot fix."""
        directory = self.policy.directory
        frontend = self._affinity.get(tenant_id)
        if frontend is not None:
            if not directory.is_dead(frontend.leases.owner):
                return frontend
            del self._affinity[tenant_id]
        hinted = self._frontend_for_owner(directory.lookup(tenant_id))
        if hinted is not None:
            return hinted
        return self._next_surviving()

    def _frontend_for_owner(self,
                            owner: Optional[str]) -> Optional[TuningService]:
        if owner is None or self.policy.directory.is_dead(owner):
            return None
        return self._by_owner.get(owner)

    def _next_surviving(self,
                        exclude: Optional[str] = None) -> TuningService:
        """First frontend in probe order not marked dead (and not
        ``exclude``); falls back to the very first frontend when the
        whole fleet looks dead — the retry loop sorts out the rest."""
        directory = self.policy.directory
        for fe in self._frontends:
            owner = fe.leases.owner
            if owner != exclude and not directory.is_dead(owner):
                return fe
        return self._frontends[0]

    def refresh_directory(self) -> int:
        """Bulk-refresh the tenant→owner cache from the store-published
        directory (served by any frontend — they share the store).
        Tries surviving frontends in probe order, marking each one that
        fails to answer dead.  Returns the number of entries now cached;
        0 if no frontend answered."""
        directory = self.policy.directory
        for fe in self._frontends:
            owner = fe.leases.owner
            if directory.is_dead(owner):
                continue
            try:
                return directory.update(fe.directory())
            except FrontendUnavailableError:
                directory.mark_dead(owner)
        return 0

    def _call(self, tenant_id: str, method: str, *args, **kwargs):
        frontend = self._route(tenant_id)
        state = self.policy.begin(tenant_id, method)
        first_hop = True
        while True:
            try:
                result = getattr(frontend, method)(tenant_id, *args, **kwargs)
            except RETRYABLE_CALL_ERRORS as exc:
                if first_hop:
                    self.first_hop_misses += 1
                    first_hop = False
                decision = state.on_error(exc)
                if decision.refresh:
                    # the frontend died under us: re-learn the directory
                    # from a survivor, then re-route — to the refreshed
                    # owner hint, else the next surviving frontend
                    self.frontend_deaths += 1
                    dead_owner = frontend.leases.owner
                    self._affinity.pop(tenant_id, None)
                    self.refresh_directory()
                    self.directory_refreshes += 1
                    frontend = (self._frontend_for_owner(
                        self.policy.directory.lookup(tenant_id))
                        or self._next_surviving(exclude=dead_owner))
                    self.redirects += 1
                    self._sleep(decision.delay)
                    continue
                target = self._frontend_for_owner(decision.holder)
                if target is not None and target is not frontend:
                    # the lease names the holding frontend: go there
                    frontend = target
                    self.redirects += 1
                else:
                    # holder unknown to this fleet (a janitor, a foreign
                    # writer), dead, already the one we asked, or a
                    # lost-lease/overload retry: stay put and wait it out
                    self.retries += 1
                self._sleep(decision.delay)
                continue
            if first_hop:
                self.first_hop_hits += 1
            owner = frontend.leases.owner
            self._affinity[tenant_id] = frontend
            self.policy.directory.record(tenant_id, owner)
            self.policy.directory.mark_alive(owner)
            return result

    # -- tenant API (mirrors TuningService) ----------------------------------
    def create(self, tenant_id: str, *args, **kwargs):
        return self._call(tenant_id, "create", *args, **kwargs)

    def suggest(self, tenant_id: str, inp):
        return self._call(tenant_id, "suggest", inp)

    def observe(self, tenant_id: str, feedback) -> None:
        return self._call(tenant_id, "observe", feedback)

    def checkpoint(self, tenant_id: str):
        return self._call(tenant_id, "checkpoint")

    def resume(self, tenant_id: str):
        return self._call(tenant_id, "resume")

    def close(self, tenant_id: str, **kwargs):
        return self._call(tenant_id, "close", **kwargs)
