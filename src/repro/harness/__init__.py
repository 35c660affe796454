"""Experiment harness: runner, metrics, registry, reporting."""

from .evaluation import (
    SafetyStats,
    StaticStats,
    cumulative_series,
    max_improvement,
    safety_stats,
    search_step,
    static_stats,
)
from .experiments import (
    SPACE_FACTORIES,
    WORKLOAD_FACTORIES,
    all_tuner_names,
    build_session,
    default_iterations,
    make_tuner,
    run_tuners,
    run_tuners_parallel,
)
from .reporting import (
    format_cumulative_table,
    format_safety_table,
    format_series,
    format_static_table,
)
from .runner import (
    IterationRecord,
    ParallelRunner,
    SessionResult,
    SessionSpec,
    TuningSession,
    build_session_from_spec,
    run_session_spec,
)

__all__ = [
    "TuningSession",
    "SessionResult",
    "IterationRecord",
    "SessionSpec",
    "ParallelRunner",
    "build_session_from_spec",
    "run_session_spec",
    "SafetyStats",
    "StaticStats",
    "safety_stats",
    "static_stats",
    "max_improvement",
    "search_step",
    "cumulative_series",
    "make_tuner",
    "all_tuner_names",
    "build_session",
    "run_tuners",
    "run_tuners_parallel",
    "default_iterations",
    "WORKLOAD_FACTORIES",
    "SPACE_FACTORIES",
    "format_safety_table",
    "format_static_table",
    "format_series",
    "format_cumulative_table",
]
