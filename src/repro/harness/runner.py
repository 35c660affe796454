"""Tuning-session runner: drives tuner <-> simulated DBMS for N intervals.

This is the experimental loop shared by every figure/table reproduction.
Each iteration follows the paper's workflow: observe the workload
snapshot, query the context's default performance (safety threshold tau),
ask the tuner for a configuration, run the interval, and feed the outcome
back to the tuner.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.base import BaseTuner, Feedback, SuggestInput
from ..core.config import OnlineTuneConfig
from ..dbms.engine import SimulatedMySQL

__all__ = ["IterationRecord", "SessionResult", "TuningSession",
           "SessionSpec", "ParallelRunner", "build_session_from_spec",
           "run_session_spec"]

#: relative slack below tau before a recommendation is counted unsafe;
#: absorbs measurement noise exactly like a production SLA guardband.
UNSAFE_TOLERANCE = 0.05


@dataclass
class IterationRecord:
    """Everything measured during one tuning interval."""

    iteration: int
    performance: float               # maximization objective
    default_performance: float       # tau for this context
    throughput: float
    latency_p99: float
    exec_seconds: float
    failed: bool
    unsafe: bool
    suggest_seconds: float           # tuner computation time
    config: Dict[str, object] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        tau = self.default_performance
        return (self.performance - tau) / max(abs(tau), 1e-9)



@dataclass
class SessionResult:
    """Outcome of a full tuning session."""

    tuner_name: str
    records: List[IterationRecord]
    is_olap: bool = False

    # -- safety statistics -------------------------------------------------
    @property
    def n_unsafe(self) -> int:
        return sum(r.unsafe for r in self.records)

    @property
    def n_failures(self) -> int:
        return sum(r.failed for r in self.records)

    # -- cumulative performance ------------------------------------------
    def cumulative_transactions(self, interval_seconds: float = 180.0) -> float:
        """Total transactions processed while tuning (OLTP metric)."""
        return sum(r.throughput for r in self.records) * interval_seconds

    def cumulative_execution_seconds(self) -> float:
        """Total OLAP execution time while tuning (lower is better)."""
        return sum(r.exec_seconds for r in self.records)

    def cumulative_improvement(self) -> float:
        """Sum of (f_t - tau_t): the paper's cumulative-improvement metric."""
        return sum(r.performance - r.default_performance for r in self.records)

    def cumulative_objective(self, interval_seconds: float = 180.0) -> float:
        if self.is_olap:
            return self.cumulative_execution_seconds()
        return self.cumulative_transactions(interval_seconds)

    # -- series for plotting/benchmark output ------------------------------
    def performance_series(self) -> np.ndarray:
        return np.array([r.performance for r in self.records])

    def improvement_series(self) -> np.ndarray:
        return np.array([r.improvement for r in self.records])

    def mean_suggest_seconds(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.suggest_seconds for r in self.records]))



class TuningSession:
    """Run one tuner against one simulated instance."""

    def __init__(self, tuner: BaseTuner, db: SimulatedMySQL,
                 n_iterations: int = 100,
                 unsafe_tolerance: float = UNSAFE_TOLERANCE,
                 snapshot_queries: int = 30,
                 record_configs: bool = False) -> None:
        self.tuner = tuner
        self.db = db
        self.n_iterations = int(n_iterations)
        self.unsafe_tolerance = float(unsafe_tolerance)
        self.snapshot_queries = int(snapshot_queries)
        self.record_configs = record_configs

    def run(self) -> SessionResult:
        """Per interval: suggest, execute, observe, record."""
        db = self.db
        tuner = self.tuner
        tuner.start(dict(db.reference_config), db.default_performance(0))
        last_metrics: Dict[str, float] = {}
        records: List[IterationRecord] = []
        any_olap = False
        for t in range(self.n_iterations):
            profile = db.profile(t)
            any_olap = any_olap or profile.is_olap
            tau = db.default_performance(t)
            snapshot = db.observe_snapshot(t, n_queries=self.snapshot_queries)

            inp = SuggestInput(iteration=t, snapshot=snapshot,
                               metrics=last_metrics,
                               default_performance=tau,
                               is_olap=profile.is_olap)
            t0 = time.perf_counter()
            config = tuner.suggest(inp)
            suggest_seconds = time.perf_counter() - t0

            result = db.run_interval(t, config)
            perf = result.objective(profile.is_olap)
            unsafe = result.failed or (
                perf < tau - self.unsafe_tolerance * abs(tau))

            tuner.observe(Feedback(
                iteration=t, config=config, performance=perf,
                metrics=result.metrics, failed=result.failed,
                default_performance=tau))

            # drain pending GP appends right after observe, so the O(n^2)
            # factor extension runs in the interval-execution window
            # instead of the next suggest's model_for.  Staging covers
            # only rows the lazy path would absorb incrementally (same
            # predicate), so trajectories are unchanged.
            stage = getattr(tuner, "stage_appends", None)
            if stage is not None:
                requests = stage()
                if requests:
                    # fuse=False: a solo session stages at most one
                    # cluster per interval, and the direct path keeps the
                    # per-model kernel arithmetic bit-identical to lazy
                    # absorption
                    from ..gp.batching import execute_appends
                    execute_appends(requests, fuse=False)

            last_metrics = result.metrics
            records.append(IterationRecord(
                iteration=t,
                performance=perf,
                default_performance=tau,
                throughput=result.throughput,
                latency_p99=result.latency_p99,
                exec_seconds=result.exec_seconds,
                failed=result.failed,
                unsafe=bool(unsafe),
                suggest_seconds=suggest_seconds,
                config=dict(config) if self.record_configs else {},
            ))
        return SessionResult(tuner.name, records, is_olap=any_olap)


@dataclass(frozen=True)
class SessionSpec:
    """A fully-serializable description of one (tuner x workload x seed)
    tuning session.

    Everything a worker process needs to *rebuild* the session from
    scratch — tuners hold closures (kernel factories) that do not pickle,
    so the spec ships names and parameters instead of live objects.  Two
    runs of the same spec are bit-identical: every source of randomness is
    derived from ``seed``.
    """

    tuner: str
    workload: str                    # key into experiments.WORKLOAD_FACTORIES
    seed: int = 0
    n_iterations: int = 60
    reference: str = "dba"
    interval_seconds: float = 180.0
    noise_std: float = 0.02
    space: str = "mysql57"           # key into experiments.SPACE_FACTORIES
    workload_kwargs: Tuple[Tuple[str, object], ...] = ()
    onlinetune_config: Optional[OnlineTuneConfig] = None
    label: Optional[str] = None      # result key / display name; the
                                     # ablation drivers run several
                                     # OnlineTune variants side by side
    offset_seed: bool = True         # False: use the seed verbatim
                                     # (single-tuner figure drivers)

    @property
    def name(self) -> str:
        return self.label or self.tuner


def build_session_from_spec(spec: SessionSpec) -> TuningSession:
    """Rebuild the fully-wired session a spec describes (top-level:
    picklable, and the single construction path serial and pooled runs
    share — which is what makes them bit-identical)."""
    from .experiments import (
        SPACE_FACTORIES,
        WORKLOAD_FACTORIES,
        build_session,
        make_tuner,
    )
    space = SPACE_FACTORIES[spec.space]()
    tuner = make_tuner(spec.tuner, space, seed=spec.seed,
                       onlinetune_config=spec.onlinetune_config,
                       offset_seed=spec.offset_seed)
    if spec.label:
        tuner.name = spec.label
    workload = WORKLOAD_FACTORIES[spec.workload](
        seed=spec.seed, **dict(spec.workload_kwargs))
    return build_session(tuner, workload, space=space,
                         reference=spec.reference,
                         n_iterations=spec.n_iterations,
                         interval_seconds=spec.interval_seconds,
                         seed=spec.seed, noise_std=spec.noise_std)


def run_session_spec(spec: SessionSpec) -> SessionResult:
    """Build and run one session from its spec (top-level: picklable)."""
    return build_session_from_spec(spec).run()


class ParallelRunner:
    """Fan independent tuning sessions across a process pool.

    Sessions share no state and are rebuilt inside each worker from their
    :class:`SessionSpec`, so results are deterministic — bit-identical to
    running the same specs serially — and returned in spec order.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``REPRO_MAX_WORKERS`` or the CPU count.
        ``1`` runs serially in-process (no pool, no pickling).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            env = os.environ.get("REPRO_MAX_WORKERS")
            max_workers = int(env) if env else (os.cpu_count() or 1)
        self.max_workers = max(1, int(max_workers))

    def run(self, specs: Iterable[SessionSpec]) -> List[SessionResult]:
        specs = list(specs)
        if self.max_workers == 1 or len(specs) <= 1:
            return [run_session_spec(spec) for spec in specs]
        workers = min(self.max_workers, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_session_spec, specs))

    def run_named(self, specs: Sequence[SessionSpec]) -> Dict[str, SessionResult]:
        """Run specs and key the results by label (or tuner name when no
        label is set); keys must be unique across the batch."""
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate session names; label the specs or "
                             "use run() instead")
        return dict(zip(names, self.run(specs)))
