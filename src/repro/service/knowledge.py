"""Cross-session knowledge base: workload signatures + warm starts.

Each closed (or checkpointed) tenant session contributes its persisted
repository, indexed by a *workload context signature* — the mean of the
session's observed context vectors.  A new tenant is warm-started by
probing the index with its own first featurized context and seeding the
best observations of the nearest neighbors into its repository before
the first ``suggest``, the same history-reuse idea the ResTune baseline
exploits across workloads.

The index is a small JSON file (human-inspectable, no pickle) that
embeds each session's warm-start payload — its best observations — so
seeding a tenant never loads a donor's full model checkpoint.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ..core.repository import DataRepository, Observation
from ..core.tuner import OnlineTune
from .checkpoint import CheckpointError

__all__ = ["KnowledgeBase", "KnowledgeEntry", "repository_signature",
           "transfer_weight"]

#: observations embedded per index entry — the warm-start transfer
#: payload lives inline (a few KB of JSON), so seeding a tenant never
#: reads, hashes, or unpickles a donor's multi-MB model checkpoint
MAX_ENTRY_SEEDS = 16


#: length scale of the signature-distance weighting: a donor whose masked
#: signature distance equals this contributes at half weight
TRANSFER_WEIGHT_SCALE = 1.0

#: seconds before a registration lock left by a crashed writer is broken
#: (a registration is one JSON rewrite — normally microseconds)
_LOCK_TIMEOUT = 10.0


def transfer_weight(distance: float, scale: float = TRANSFER_WEIGHT_SCALE) -> float:
    """Seeding weight of a donor at a given signature distance.

    ``1 / (1 + (d / scale)^2)``: exactly 1.0 for a zero-distance donor
    (identical-workload transfer keeps PR 2's full-strength seeding) and
    monotonically decreasing in distance, so far-away donors inform the
    safety model without steering it.
    """
    d = max(0.0, float(distance))
    return 1.0 / (1.0 + (d / float(scale)) ** 2)


def _seed_payload(obs: Observation) -> dict:
    return {"context": [float(v) for v in obs.context],
            "config_vec": [float(v) for v in obs.config_vec],
            "performance": float(obs.performance),
            "default_performance": float(obs.default_performance),
            "failed": bool(obs.failed)}


def _seed_observation(payload: dict, iteration: int) -> Observation:
    return Observation(iteration=iteration,
                       context=np.asarray(payload["context"], dtype=float),
                       config_vec=np.asarray(payload["config_vec"], dtype=float),
                       performance=float(payload["performance"]),
                       default_performance=float(payload["default_performance"]),
                       failed=bool(payload.get("failed", False)))


def _best_observations(repo: DataRepository, limit: int) -> List[dict]:
    """Top non-failed observations by improvement, as seed payloads."""
    order = np.argsort(repo.improvements())[::-1]
    seeds: List[dict] = []
    for i in order:
        if repo.failed_at(int(i)):
            continue
        seeds.append(_seed_payload(repo[int(i)]))
        if len(seeds) >= limit:
            break
    return seeds


def repository_signature(repo: DataRepository) -> np.ndarray:
    """Workload context signature: the mean observed context vector."""
    if len(repo) == 0:
        raise ValueError("cannot summarize an empty repository")
    return np.asarray(repo.contexts().mean(axis=0), dtype=float)


@dataclass
class KnowledgeEntry:
    """One indexed session repository."""

    tenant: str
    checkpoint: str                 # path to the tuner checkpoint
    signature: List[float]          # mean context vector
    context_dim: int
    config_dim: int
    n_observations: int
    best_improvement: float
    comparable: Optional[List[bool]] = None   # cross-featurizer-safe dims
    knobs: Optional[List[str]] = None         # knob-space identity: unit
                                              # config vectors only transfer
                                              # between identical spaces
    seeds: Optional[List[dict]] = None        # inline warm-start payload,
                                              # best-improvement-first

    def distance(self, signature: np.ndarray) -> float:
        """Masked Euclidean distance over cross-featurizer-comparable dims.

        Query-embedding components live in each tenant featurizer's own
        learned PCA space, so they are excluded from the metric (see
        :meth:`repro.core.ContextFeaturizer.comparable_mask`).
        """
        diff = np.asarray(self.signature) - signature
        if self.comparable is not None and len(self.comparable) == diff.shape[0]:
            diff = diff[np.asarray(self.comparable, dtype=bool)]
        return float(np.linalg.norm(diff))


class KnowledgeBase:
    """A persistent index of session repositories keyed by signature."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.entries: List[KnowledgeEntry] = []
        if self.path.exists():
            self._load()

    def __len__(self) -> int:
        return len(self.entries)

    # -- persistence -------------------------------------------------------
    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"knowledge index {self.path} is unreadable: {exc}") from exc
        self.entries = [KnowledgeEntry(**item) for item in raw.get("entries", [])]

    def _persist(self) -> None:
        """Atomic rewrite (temp + replace): a crash mid-write must never
        leave a half-written index that blocks service startup."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"entries": [asdict(e) for e in self.entries]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(dir=str(self.path.parent),
                                        prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @contextmanager
    def _registration_lock(self):
        """Cross-process mutual exclusion for read-modify-write of the
        index file.  Several fleet frontends closing tenants at once
        share one ``knowledge.json``; without this, each would
        rewrite the whole file from its own in-memory view and silently
        drop the entries other frontends registered in between.  A lock
        file older than ``_LOCK_TIMEOUT`` is treated as a crashed
        writer's leftover and broken."""
        lock = self.path.with_name(self.path.name + ".lock")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.time() + _LOCK_TIMEOUT
        while True:
            try:
                os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                try:
                    stale = time.time() - lock.stat().st_mtime > _LOCK_TIMEOUT
                except OSError:
                    continue             # holder just released; retry
                if stale:
                    try:
                        os.unlink(lock)
                    except OSError:
                        pass
                    continue
                if time.time() > deadline:
                    raise CheckpointError(
                        f"knowledge index lock {lock} held for over "
                        f"{_LOCK_TIMEOUT}s; giving up")
                time.sleep(0.005)
        try:
            yield
        finally:
            try:
                os.unlink(lock)
            except OSError:
                pass

    # -- registration -----------------------------------------------------
    def register(self, tenant: str, tuner: OnlineTune, checkpoint_path) -> Optional[KnowledgeEntry]:
        """Index a tenant's repository; replaces any previous entry.

        Returns None (and indexes nothing) for sessions with no history.
        Concurrency-safe across processes: the on-disk index is reloaded
        and rewritten under a lock file, so entries registered by other
        fleet frontends survive this registration.
        """
        if len(tuner.repo) == 0:
            return None
        best_idx = tuner.repo.best_index()
        entry = KnowledgeEntry(
            tenant=tenant,
            # resolve so the index survives reopening from a different cwd
            checkpoint=str(Path(checkpoint_path).resolve()),
            signature=[float(v) for v in repository_signature(tuner.repo)],
            context_dim=int(tuner.featurizer.dim),
            config_dim=int(tuner.space.dim),
            n_observations=len(tuner.repo),
            best_improvement=(float(tuner.repo.improvement_at(best_idx))
                              if best_idx is not None else 0.0),
            comparable=[bool(b) for b in tuner.featurizer.comparable_mask],
            knobs=list(tuner.space.names),
            seeds=_best_observations(tuner.repo, MAX_ENTRY_SEEDS),
        )
        with self._registration_lock():
            if self.path.exists():
                self._load()     # pick up other frontends' registrations
            self.entries = [e for e in self.entries if e.tenant != tenant]
            self.entries.append(entry)
            self._persist()
        return entry

    # -- retrieval ----------------------------------------------------------
    def nearest(self, signature: np.ndarray, k: int = 1,
                context_dim: Optional[int] = None,
                config_dim: Optional[int] = None,
                knobs: Optional[Sequence[str]] = None,
                exclude: Sequence[str] = ()) -> List[KnowledgeEntry]:
        """The ``k`` indexed sessions closest to a context signature.

        ``knobs`` restricts candidates to donors tuning the *identical*
        knob space — unit config vectors are positional, so dimension
        equality alone would let a same-width foreign space through.
        """
        signature = np.asarray(signature, dtype=float).ravel()
        knobs = None if knobs is None else list(knobs)
        pool = [e for e in self.entries
                if e.tenant not in set(exclude)
                and (context_dim is None or e.context_dim == context_dim)
                and (config_dim is None or e.config_dim == config_dim)
                and (knobs is None or e.knobs == knobs)
                and len(e.signature) == signature.shape[0]]
        pool.sort(key=lambda e: (e.distance(signature), e.tenant))
        return pool[:max(0, int(k))]

    def warm_start(self, tuner: OnlineTune, signature: np.ndarray,
                   k: int = 1, max_observations: int = 16,
                   exclude: Sequence[str] = ()) -> int:
        """Seed a fresh tuner from its nearest neighbors; returns count.

        The transfer payload is the observations embedded in the index
        entries at registration — seeding never touches the donors'
        (multi-MB) model checkpoints, so a pruned or relocated donor
        checkpoint cannot degrade a tenant creation.

        Retrieval distances use only cross-featurizer-comparable context
        dimensions.  Each seeded observation is stamped ``transferred``
        with weight :func:`transfer_weight` of its donor's signature
        distance; the GP/cluster layer inflates the observation noise by
        the reciprocal and further decays it as native history accumulates
        (:func:`repro.core.transfer_decay`), so a zero-distance donor
        starts at PR 2's full-strength seeding while distant donors only
        nudge the safety model.
        """
        neighbors = self.nearest(signature, k=k,
                                 context_dim=tuner.featurizer.dim,
                                 config_dim=tuner.space.dim,
                                 knobs=tuner.space.names, exclude=exclude)
        if not neighbors:
            return 0
        per_neighbor = max(1, max_observations // len(neighbors))
        picked: List[Observation] = []
        for entry in neighbors:
            weight = transfer_weight(entry.distance(signature))
            for payload in (entry.seeds or [])[:per_neighbor]:
                obs = _seed_observation(payload, iteration=0)
                obs.weight = weight
                obs.transferred = True
                picked.append(obs)
        picked = picked[:max_observations]
        # seed worst-first so the repository tail — which the regression
        # guard inspects on the first suggest — holds the best (and in
        # practice safe) transferred observation; stamp negative
        # iterations to mark transferred history
        picked.sort(key=lambda obs: obs.improvement)
        for i, obs in enumerate(picked):
            obs.iteration = i - len(picked)
        return tuner.seed_observations(picked)
