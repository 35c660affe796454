"""Session workloads: one OnlineTune session in-process, repeated.

Each repeat rebuilds the session from the same :class:`SessionSpec`
(``repro.harness``) and drives ``OnlineTune`` against the simulated
MySQL interval by interval.  The loop is ``TuningSession.step`` without
the featurization prefetch, so featurization is timed inside ``suggest``
the way a wire frontend runs it; trajectories are unchanged because the
prefetch is bit-identical by design.  ``observe`` time includes the GP
append drain that follows it in ``TuningSession.step``.  The simulator
is never inside a timed call.

A session's inputs are fixed (``SESSION_SEED``), whatever ``--seed``
says.  How much work a 400-interval session does depends chaotically on
its inputs: over session seeds 0-9 of ``session-tpcc`` the GP fits per
session ranged from 19 to 182 and tuner time from 6.2 to 13.6 s,
because the seed changes which clusters outgrow the GP window and how
often the subspace re-draws its candidates.  A run has room for two
sessions, which cannot average that out, so every run replays the same
trajectory and the fleets carry the input variation (32 instances per
run).  A tuner change is therefore judged on one session trajectory
per workload.  Repeats run while the time
budget lasts (at least two); identical repeats double as the
determinism check.  Timing metrics take each interval's least time over
the repeats: interval ``t`` does identical work in every repeat, and the
host only ever adds to it - stalls of up to 100 ms land on random
intervals of one repeat and not the other.

Set-up time is a cold start, the median of ``COLD_STARTS``: a fresh
interpreter imports the library and builds the session up to its first
``suggest``, as a process that tunes one database does.  The build alone
takes about a millisecond, and its median moved by 40 % between a quiet
and a busy hour of the host.  The cold starts are split around the
repeats (``common.split_setups``), so a few seconds of load from
elsewhere on the host reach only some of them.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .common import (
    REPO_ROOT,
    Checks,
    child_env,
    config_in_bounds,
    distribution,
    median,
    split_setups,
)
from .tracing import (
    SESSION_LAYERS,
    Tracer,
    coverage,
    layer_metrics,
    layer_totals,
)

#: workload name -> key into repro.harness.experiments.WORKLOAD_FACTORIES
SESSION_WORKLOADS = {"session-tpcc": "tpcc",
                     "session-cycle": "oltp_olap_cycle"}

#: the paper's session length
INTERVALS = 400

#: the session's input seed (see the module docstring)
SESSION_SEED = 0

#: cold starts timed per run for ``setup_s``
COLD_STARTS = 5


def build(workload: str, intervals: int):
    """The session up to its first ``suggest``: (session, first
    snapshot), with the tuner started at the DBA's reference config."""
    from repro.harness.runner import SessionSpec, build_session_from_spec
    session = build_session_from_spec(SessionSpec(
        tuner="OnlineTune", workload=SESSION_WORKLOADS[workload],
        space="mysql57", seed=SESSION_SEED, n_iterations=intervals))
    db = session.db
    session.tuner.start(dict(db.reference_config), db.default_performance(0))
    return session, db.observe_snapshot(0, n_queries=session.snapshot_queries)


def cold_start_s(workload: str, intervals: int) -> float:
    """Seconds from spawning an interpreter to its session being ready."""
    code = (f"from benchmarks.e2e.sessions import build; "
            f"build({workload!r}, {intervals}); print('READY', flush=True)")
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", code], env=child_env(),
                            cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
                            text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - t0
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"session cold start failed (rc={proc.returncode})")
    return elapsed


@dataclass
class SessionRun:
    wall: tuple                     # (start_ns, end_ns) of the interval loop
    suggest_ms: List[float] = field(default_factory=list)
    observe_ms: List[float] = field(default_factory=list)
    cpu_ms: List[float] = field(default_factory=list)
    configs: List[str] = field(default_factory=list)
    in_bounds: bool = True
    cum_improvement: float = 0.0
    unsafe: int = 0
    failures: int = 0
    tuner: object = None
    next_input: object = None

    @property
    def tune_s(self) -> float:
        return (sum(self.suggest_ms) + sum(self.observe_ms)) / 1e3


def _one_session(workload: str, intervals: int) -> SessionRun:
    from repro.baselines.base import Feedback, SuggestInput
    from repro.gp import batching
    from repro.harness.runner import UNSAFE_TOLERANCE

    session, snapshot = build(workload, intervals)
    tuner, db = session.tuner, session.db
    space = tuner.space

    rep = SessionRun(wall=(0, 0))
    last_metrics: Dict[str, float] = {}
    n = intervals
    clock, cpu = time.perf_counter, time.process_time
    start_ns = time.monotonic_ns()
    for t in range(n):
        profile = db.profile(t)
        tau = db.default_performance(t)
        inp = SuggestInput(iteration=t, snapshot=snapshot,
                           metrics=last_metrics, default_performance=tau,
                           is_olap=profile.is_olap)
        c0, s0 = cpu(), clock()
        config = tuner.suggest(inp)
        s1, c1 = clock(), cpu()
        rep.suggest_ms.append((s1 - s0) * 1e3)
        rep.in_bounds &= config_in_bounds(space, config)
        rep.configs.append(json.dumps(config, sort_keys=True))
        if t + 1 < n:
            snapshot = db.observe_snapshot(
                t + 1, n_queries=session.snapshot_queries)
        result = db.run_interval(t, config)
        perf = result.objective(profile.is_olap)
        rep.cum_improvement += perf - tau
        rep.unsafe += bool(result.failed or
                           perf < tau - UNSAFE_TOLERANCE * abs(tau))
        rep.failures += bool(result.failed)
        feedback = Feedback(iteration=t, config=config, performance=perf,
                            metrics=result.metrics, failed=result.failed,
                            default_performance=tau)
        c2, o0 = cpu(), clock()
        tuner.observe(feedback)
        requests = tuner.stage_appends()
        if requests:
            batching.execute_appends(requests, fuse=False)
        o1, c3 = clock(), cpu()
        rep.observe_ms.append((o1 - o0) * 1e3)
        rep.cpu_ms.append(((c1 - c0) + (c3 - c2)) * 1e3)
        last_metrics = result.metrics
    rep.wall = (start_ns, time.monotonic_ns())
    rep.tuner = tuner
    rep.next_input = SuggestInput(
        iteration=n, snapshot=db.observe_snapshot(
            n, n_queries=session.snapshot_queries),
        metrics=last_metrics,
        default_performance=db.default_performance(n),
        is_olap=db.profile(n).is_olap)
    return rep


def _checkpoint_roundtrip(run: SessionRun, work: Path, checks: Checks) -> int:
    """Persist the final tuner through the checkpoint store, reload it,
    and require the reloaded tuner to suggest exactly what the live one
    does.  Returns the snapshot's size in bytes."""
    import copy

    from repro.service.store import CheckpointStore

    store = CheckpointStore(work / "session-store")
    path = store.save("session", run.tuner)
    size = path.stat().st_size
    reloaded, _meta, records = store.load_latest_chain("session")
    live = copy.deepcopy(run.tuner).suggest(run.next_input)
    again = reloaded.suggest(run.next_input)
    checks.add("checkpoint_roundtrip", not records and live == again,
               "reloaded tuner suggests differently" if live != again else "")
    return size


def run_session(name: str, seed: int, seconds: float, work: Path,
                trace: bool = False, intervals: int = INTERVALS,
                min_repeats: int = 2,
                cold_starts: int = COLD_STARTS) -> Dict[str, object]:
    """Run one session workload; returns metrics, checks and details.
    ``seed`` is recorded only (see the module docstring)."""
    before, after = split_setups(cold_starts)
    setup_s = [cold_start_s(name, intervals) for _ in range(before)]
    tracer: Optional[Tracer] = Tracer().install(SESSION_LAYERS) if trace \
        else None
    runs: List[SessionRun] = []
    begin = time.perf_counter()
    try:
        while True:
            if runs:
                runs[-1].tuner = None        # only the last one is checked
            runs.append(_one_session(name, intervals))
            elapsed = time.perf_counter() - begin
            if (len(runs) >= min_repeats
                    and elapsed + elapsed / len(runs) > seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s += [cold_start_s(name, intervals) for _ in range(after)]

    checks = Checks()
    checks.add("configs_in_bounds", all(r.in_bounds for r in runs))
    same = all(r.configs == runs[0].configs for r in runs[1:])
    checks.add("repeats_identical", same,
               "" if same else "a repeat suggested a different trajectory")
    snapshot_bytes = _checkpoint_roundtrip(runs[-1], work, checks)

    # each interval's least time over the repeats (module docstring)
    suggest_ms = np.min([r.suggest_ms for r in runs], axis=0)
    observe_ms = np.min([r.observe_ms for r in runs], axis=0)
    cpu_ms = np.min([r.cpu_ms for r in runs], axis=0)
    suggest, observe = distribution(suggest_ms), distribution(observe_ms)
    metrics = {
        "setup_s": median(setup_s),
        "suggest_ms_iqm": suggest["iqm"],
        "cpu_ms_per_interval": float(cpu_ms.mean()),
        "max_rate_per_s": intervals * 1e3 / float(suggest_ms.sum()
                                                  + observe_ms.sum()),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "store_bytes_per_interval": snapshot_bytes / intervals,
    }
    latency = {"client.suggest_ms_p50": suggest["p50"],
               "client.suggest_ms_tail": suggest["tail"],
               "client.observe_ms_p50": observe["p50"],
               "client.observe_ms_tail": observe["tail"]}
    quality = {"cum_improvement": runs[0].cum_improvement,
               "unsafe_count": runs[0].unsafe,
               "failure_count": runs[0].failures}
    details = {
        "setup_s": setup_s, "intervals": intervals, "repeats": len(runs),
        "input_seed": SESSION_SEED,
        "tune_s": [r.tune_s for r in runs],
        "tail_level": suggest["tail_level"], "latency_ms": latency,
        "quality": quality,
    }
    result = {"metrics": metrics, "checks": checks, "details": details,
              "attempted": 2 * intervals * len(runs), "failed": 0}
    if tracer is not None:
        result["layers"] = _session_layers(tracer, runs, quality, latency)
    return result


def _session_layers(tracer: Tracer, runs: List[SessionRun],
                    quality: Dict[str, float],
                    latency: Dict[str, float]) -> Dict[str, object]:
    """Per-layer breakdown of the traced repeats' interval loops."""
    windows = [r.wall for r in runs]
    busy_ns = sum(b - a for a, b in windows)
    totals = layer_totals(tracer.spans, windows)
    covered = coverage(tracer.spans, windows)
    n_spans = sum(v["calls"] for v in totals.values())
    pairs = sum(len(r.suggest_ms) for r in runs)
    tune_ns = sum(r.tune_s for r in runs) * 1e9
    importance_ns = totals.get("core.importance", {}).get("self_ns", 0)
    analysis = {"importance_share_of_tune_s": importance_ns / tune_ns}
    return layer_metrics(totals, pairs=pairs, busy_ns=busy_ns,
                         covered_ns=covered,
                         overhead_ns=n_spans * tracer.span_cost_ns(),
                         quality=quality, extra=latency, analysis=analysis)
