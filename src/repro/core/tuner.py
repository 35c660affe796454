"""OnlineTune: the paper's primary contribution (Algorithm 3).

Per iteration the tuner (1) featurizes the context, (2) selects the
cluster model via the SVM boundary, (3) adapts that model's configuration
subspace, (4) assesses candidate safety with black-box confidence bounds
and white-box rules, (5) selects a configuration by safety-constrained
UCB with epsilon-greedy boundary exploration, and after evaluation
(6, 7) updates the repository, the cluster models, and the counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from ..baselines.base import BaseTuner, Feedback, SuggestInput
from ..gp.kernels import AdditiveKernelFactory
from ..knobs.knob import Configuration, KnobSpace
from ..knobs.mysql_knobs import INSTANCE_MEMORY_BYTES, INSTANCE_VCPUS
from ..rules.rule import RuleBook, RuleContext
from .candidates import select_candidate
from .clustering import ClusteredModels
from .config import OnlineTuneConfig
from .context import ContextFeaturizer
from .repository import DataRepository, Observation
from .safety import SafetyAssessor
from .subspace import Subspace

__all__ = ["OnlineTune", "IterationTrace"]


@dataclass
class IterationTrace:
    """Diagnostics recorded each iteration (drives Figure 13)."""

    iteration: int
    model_label: int
    subspace_kind: str
    subspace_radius: float
    safety_set_size: int
    candidate_distance: float        # |theta_t - theta_default|
    center_distance: float           # |subspace center - theta_default|
    overhead: Dict[str, float] = field(default_factory=dict)


class OnlineTune(BaseTuner):
    """Safe, contextual online configuration tuner."""

    name = "OnlineTune"

    def __init__(self, space: KnobSpace, config: Optional[OnlineTuneConfig] = None,
                 rulebook: Optional[RuleBook] = None,
                 featurizer: Optional[ContextFeaturizer] = None,
                 memory_bytes: int = INSTANCE_MEMORY_BYTES,
                 vcpus: int = INSTANCE_VCPUS, seed: int = 0) -> None:
        super().__init__(space, seed)
        self.config = (config or OnlineTuneConfig()).resolved()
        cfg = self.config
        self.featurizer = featurizer or ContextFeaturizer(
            use_workload=cfg.use_workload_context,
            use_data=cfg.use_data_context,
            embedding_components=cfg.embedding_components,
            warmup_snapshots=cfg.warmup_snapshots,
            seed=seed)
        if rulebook is None and cfg.use_whitebox:
            from ..rules.mysql_rules import mysql_rulebook
            rulebook = mysql_rulebook()
        self.rulebook = rulebook
        self.memory_bytes = memory_bytes
        self.vcpus = vcpus

        self.repo = DataRepository(context_dim=self.featurizer.dim,
                                   config_dim=space.dim)
        self.models = ClusteredModels(
            config_dim=space.dim, context_dim=self.featurizer.dim,
            kernel_factory=AdditiveKernelFactory(space.dim,
                                                 self.featurizer.dim),
            eps=cfg.dbscan_eps, min_samples=cfg.dbscan_min_samples,
            max_cluster_size=cfg.max_cluster_size,
            nmi_threshold=cfg.nmi_threshold,
            recluster_every=cfg.recluster_every,
            beta=cfg.beta, enabled=cfg.use_clustering, seed=seed,
            transfer_half_life=cfg.transfer_half_life)
        self.assessor = SafetyAssessor(
            space, rulebook, margin=cfg.safety_margin,
            use_blackbox=cfg.use_blackbox, use_whitebox=cfg.use_whitebox)
        self.subspaces: Dict[int, Subspace] = {}

        self._initial_vec: Optional[np.ndarray] = None
        self._pending_context: Optional[np.ndarray] = None
        self._pending_label: int = 0
        self._pending_vec: Optional[np.ndarray] = None
        self._pending_override = False
        self._last_improvement: Optional[float] = None
        self.traces: list[IterationTrace] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self, initial_config: Configuration,
              initial_performance: float) -> None:
        self._initial_vec = self.space.to_unit(initial_config)

    # -- durability (service layer) -----------------------------------------
    def checkpoint(self, path, metadata: Optional[Dict[str, object]] = None):
        """Serialize the complete tuner state to a versioned checkpoint.

        Everything that shapes future suggestions is captured — the
        columnar repository, per-cluster GP models (Cholesky factors
        included), subspace and rule-book state, the featurizer (trained
        embedder + PCA), pending-iteration scratch state, and the RNG —
        so :meth:`resume` continues the session bit-identically.
        """
        from ..service.checkpoint import save_checkpoint
        meta = {
            "tuner_class": type(self).__name__,
            "n_observations": len(self.repo),
            "config_dim": self.space.dim,
            "context_dim": self.featurizer.dim,
            "seed": self.seed,
        }
        if metadata:
            meta.update(metadata)
        return save_checkpoint(path, self, metadata=meta)

    @classmethod
    def resume(cls, path) -> "OnlineTune":
        """Rehydrate a tuner from :meth:`checkpoint` output.

        The returned instance emits exactly the suggestions the original
        would have produced had the process never stopped.
        """
        from ..service.checkpoint import CheckpointError, load_checkpoint
        tuner, _meta = load_checkpoint(path)
        if not isinstance(tuner, cls):
            raise CheckpointError(
                f"checkpoint holds a {type(tuner).__name__}, not a {cls.__name__}")
        return tuner

    def seed_observations(self, observations: Iterable[Observation]) -> int:
        """Warm-start: ingest transferred observations before tuning starts.

        Used by the service knowledge base to seed a new tenant from its
        nearest-neighbor workloads.  Must be called before the first
        :meth:`suggest`; seeded history skips the cold-start default
        recommendation and gives the safety model a head start.
        """
        if len(self.repo) > 0:
            raise RuntimeError("seed_observations() must run before tuning starts")
        count = 0
        for obs in observations:
            self.repo.add(obs)
            self.models.add_observation(obs.context, self.repo)
            count += 1
        return count

    def replay(self, records: Iterable[Dict[str, object]]) -> int:
        """Re-execute logged intervals on top of a snapshot (delta resume).

        Each record holds the interval's ``input`` (:class:`SuggestInput`,
        or None when the client observed without a suggest) and its
        ``feedback`` (:class:`Feedback`).  Because :meth:`suggest` is
        deterministic given tuner state and input, replaying the log
        reproduces *exactly* the state the original process held after
        its last logged ``observe`` — RNG streams, GP factors (extended
        through the same rank-1 ``add_point`` fast path), subspace
        counters and featurizer warm-up included.  Returns the number of
        intervals replayed.
        """
        count = 0
        for rec in records:
            inp = rec.get("input")
            if inp is not None:
                self.suggest(inp)
            self.observe(rec["feedback"])
            count += 1
        return count

    def _default_vec(self) -> np.ndarray:
        if self._initial_vec is None:
            self._initial_vec = self.space.default_vector()
        return self._initial_vec

    def _best_config_vec(self, label: int) -> Optional[np.ndarray]:
        """Best evaluated configuration for the cluster (global fallback
        handled by the cache); None when nothing has been evaluated."""
        best_idx = self.models.best_index(label, self.repo)
        return (self.repo.config_at(best_idx).copy()
                if best_idx is not None else None)

    def _subspace_for(self, label: int) -> Subspace:
        cfg = self.config
        if label not in self.subspaces:
            sub = Subspace(self.space.dim, r_init=cfg.r_init, r_max=cfg.r_max,
                           r_min=cfg.r_min, eta_succ=cfg.eta_succ,
                           eta_fail=cfg.eta_fail,
                           seed=self.seed + 31 * (label + 1))
            try:
                from ..knobs.mysql_knobs import importance_prior_vector
                sub.set_prior_importances(importance_prior_vector(self.space))
            except (ValueError, KeyError):
                pass  # non-MySQL spaces simply have no prior
            # centre on the cluster's best known configuration, falling back
            # to the global best, then the initial safe configuration
            best = self._best_config_vec(label)
            center = best if best is not None else self._default_vec()
            sub.initialize(center)
            self.subspaces[label] = sub
        return self.subspaces[label]

    def _rule_context(self, inp: SuggestInput) -> RuleContext:
        return RuleContext(memory_bytes=self.memory_bytes, vcpus=self.vcpus,
                           metrics=dict(inp.metrics), is_olap=inp.is_olap)

    # -- Algorithm 3 main loop ------------------------------------------------
    def suggest(self, inp: SuggestInput) -> Configuration:
        cfg = self.config
        overhead: Dict[str, float] = {}

        t0 = time.perf_counter()
        context = self.featurizer.featurize(inp.snapshot)
        overhead["featurization"] = time.perf_counter() - t0
        self._pending_context = context

        # cold start: apply the initial safe configuration first
        if len(self.repo) == 0:
            self._pending_vec = self._default_vec()
            self._pending_label = 0
            self._pending_override = False
            return self.space.from_unit(self._pending_vec)

        # the paper's regression guard: after evaluating an unsafe
        # configuration, recommend a conservative one near the evaluated
        # best (Section 7.2), avoiding successive regressions
        last = self.repo[-1]
        if not last.safe and cfg.use_safety:
            label = self.models.select(context)
            self._pending_label = label
            best = self._best_config_vec(label)
            vec = best if best is not None else self._default_vec()
            self._pending_vec = vec
            self._pending_override = False
            subspace = self._subspace_for(label)
            self.traces.append(IterationTrace(
                iteration=inp.iteration, model_label=label,
                subspace_kind=subspace.kind, subspace_radius=subspace.radius,
                safety_set_size=0,
                candidate_distance=float(np.linalg.norm(vec - self._default_vec())),
                center_distance=subspace.distance_from(self._default_vec()),
                overhead=overhead))
            return self.space.from_unit(vec)

        t0 = time.perf_counter()
        label = self.models.select(context)
        model = self.models.model_for(label, self.repo)
        overhead["model_selection"] = time.perf_counter() - t0
        self._pending_label = label

        t0 = time.perf_counter()
        subspace = self._subspace_for(label)
        cache_token: Optional[int] = None
        if cfg.use_subspace:
            candidates = subspace.discretize(cfg.n_candidates)
            if cfg.use_kernel_cache and subspace.kind == Subspace.LINE:
                # only line-region discretizations are stable across
                # intervals; the token lets the GP/safety layers reuse
                # their cached candidate blocks until the subspace
                # re-discretizes.  Hypercube regions draw fresh
                # candidates every call, so passing their token would
                # only pay the cache-seeding cost for guaranteed misses.
                cache_token = subspace.discretize_token
        else:
            candidates = self.rng.random((cfg.n_candidates, self.space.dim))
            candidates[0] = self._default_vec()
        overhead["subspace"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        rule_ctx = self._rule_context(inp)
        assessment = self.assessor.assess(model, candidates, context,
                                          inp.default_performance, rule_ctx,
                                          cache_token=cache_token)
        assessment = self.assessor.resolve_conflict(assessment, rule_ctx)
        overhead["safety"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        # a degenerate safety set (only the incumbent) means the current
        # region is exhausted: alternate the subspace type (switching rule)
        if cfg.use_subspace and assessment.safety_set_size <= 1:
            subspace.exhausted()
        # line regions exist for safe *exploration* (Section 6.1): walk the
        # safe boundary along the line aggressively; hypercube regions exploit
        epsilon = cfg.epsilon if subspace.kind == Subspace.HYPERCUBE else 0.5
        if not cfg.use_subspace:
            epsilon = cfg.epsilon
        choice = select_candidate(assessment, epsilon, self.rng,
                                  selection_beta=cfg.selection_beta,
                                  safety_beta=cfg.beta)
        if choice is None:
            # empty safety set: fall back to the best evaluated configuration
            # and switch the subspace type (the paper's switching rule)
            if cfg.use_subspace:
                subspace.exhausted()
            best = self._best_config_vec(label)
            vec = best if best is not None else self._default_vec()
            self._pending_override = False
        else:
            vec = assessment.candidates[choice]
            self._pending_override = assessment.overridden_rule is not None
        overhead["selection"] = time.perf_counter() - t0

        self._pending_vec = vec
        self.traces.append(IterationTrace(
            iteration=inp.iteration,
            model_label=label,
            subspace_kind=subspace.kind,
            subspace_radius=subspace.radius,
            safety_set_size=assessment.safety_set_size,
            candidate_distance=float(np.linalg.norm(vec - self._default_vec())),
            center_distance=subspace.distance_from(self._default_vec()),
            overhead=overhead,
        ))
        return self.space.from_unit(vec)

    # -- feedback ----------------------------------------------------------
    def observe(self, feedback: Feedback) -> None:
        cfg = self.config
        context = (self._pending_context if self._pending_context is not None
                   else np.zeros(self.featurizer.dim))
        vec = (self._pending_vec if self._pending_vec is not None
               else self.space.to_unit(feedback.config))
        obs = Observation(
            iteration=feedback.iteration,
            context=context,
            config_vec=vec,
            performance=feedback.performance,
            default_performance=feedback.default_performance,
            failed=feedback.failed,
        )
        self.repo.add(obs)
        label = self.models.add_observation(context, self.repo)

        # white-box feedback on an overridden rule
        if self._pending_override and self.rulebook is not None:
            self.rulebook.feedback(was_safe=obs.safe)
            self._pending_override = False

        # subspace success/failure counters + re-centering
        if cfg.use_subspace:
            subspace = self._subspace_for(label)
            improvement = obs.improvement
            prev = self._last_improvement
            success = prev is not None and improvement > prev and not feedback.failed
            new_center = self._best_config_vec(label)
            subspace.update(success, improvement, new_center=new_center)
            if (len(self.repo) % cfg.importance_every == 0
                    and len(self.repo) >= 8):
                subspace.set_importances(self.repo.configs(),
                                         self.repo.improvements())
        self._last_improvement = obs.improvement

    def stage_appends(self) -> list:
        """Pending GP appends buffered by :meth:`observe`, as fuseable
        batch requests.

        Observations land in the repository immediately; the per-cluster
        GP absorbs them lazily on the next :meth:`suggest` that selects
        the cluster.  This hook drains that buffer eagerly instead —
        per-cluster :class:`~repro.gp.batching.AppendRequest` objects a
        cross-tenant batching layer can fuse into one GEMM (see
        :func:`repro.gp.batching.execute_appends`).  Only appends the
        lazy path would absorb incrementally are staged, so eager
        draining leaves every later suggestion unchanged (up to the
        documented rank-k roundoff).
        """
        return self.models.stage_appends(self.repo)
