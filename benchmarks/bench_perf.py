"""Microbenchmark: OnlineTune suggest+observe latency vs. history size.

Times the full per-iteration hot path (suggest + observe) of an
:class:`~repro.core.OnlineTune` tuner against a static simulated TPC-C
instance at several history sizes, plus an ``append`` section — rank-k
Cholesky-extension latency per appended row at several batch sizes —
and writes the results to ``BENCH_perf.json`` at the repository root.
This is the perf trajectory every scaling change measures itself against
(paper Table A1 keeps the same overhead sub-second at 400 intervals).

Usage::

    PYTHONPATH=src python -m benchmarks.bench_perf                 # refresh 'current'
    PYTHONPATH=src python -m benchmarks.bench_perf --as-baseline   # record 'baseline'

The ``--as-baseline`` run stores its numbers under the ``baseline`` key;
subsequent plain runs store under ``current`` and report the speedup at
the largest history size, preserving the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

HISTORY_SIZES = (50, 200, 500)
WINDOW = 20
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def run_benchmark(history_sizes: Iterable[int] = HISTORY_SIZES,
                  window: int = WINDOW, seed: int = 0,
                  verbose: bool = True) -> Dict[str, object]:
    """Run one tuning session, timing suggest/observe around each size.

    At each target history size ``h`` the mean wall-clock cost of
    ``suggest() + observe()`` is averaged over the ``window`` iterations
    whose history length at suggest time is in ``[h, h + window)``.
    Clustering is disabled so a single contextual GP sees the entire
    history — the point is to measure the modelling hot path, not DBSCAN.
    """
    from repro.baselines.base import Feedback, SuggestInput
    from repro.core import OnlineTune, OnlineTuneConfig
    from repro.gp.batching import execute_appends
    from repro.harness import build_session
    from repro.knobs import mysql57_space
    from repro.workloads import TPCCWorkload

    history_sizes = sorted(int(h) for h in history_sizes)
    n_iterations = history_sizes[-1] + window
    space = mysql57_space()
    cfg = OnlineTuneConfig(use_clustering=False,
                           max_cluster_size=n_iterations + 1)
    tuner = OnlineTune(space, config=cfg, seed=seed)
    session = build_session(tuner, TPCCWorkload(seed=seed, dynamic=False,
                                                grow_data=False),
                            space=space, n_iterations=n_iterations, seed=seed)
    db = session.db

    import tempfile

    from repro.service import CheckpointStore

    delta_base = history_sizes[-1]       # chain the last `window` intervals
    delta_dir = tempfile.TemporaryDirectory(prefix="repro-bench-delta-")
    store = CheckpointStore(delta_dir.name)
    append_times: List[float] = []
    append_bytes: List[int] = []

    tuner.start(dict(db.reference_config), db.default_performance(0))
    suggest_times: List[float] = []
    observe_times: List[float] = []
    last_metrics: Dict[str, float] = {}
    # the TuningSession.run loop; the timed suggest includes featurization
    for t in range(n_iterations):
        profile = db.profile(t)
        tau = db.default_performance(t)
        snapshot = db.observe_snapshot(t, n_queries=session.snapshot_queries)
        inp = SuggestInput(iteration=t, snapshot=snapshot,
                           metrics=last_metrics, default_performance=tau,
                           is_olap=profile.is_olap)
        t0 = time.perf_counter()
        config = tuner.suggest(inp)
        t1 = time.perf_counter()
        result = db.run_interval(t, config)
        perf = result.objective(profile.is_olap)
        t2 = time.perf_counter()
        feedback = Feedback(iteration=t, config=config, performance=perf,
                            metrics=result.metrics, failed=result.failed,
                            default_performance=tau)
        tuner.observe(feedback)
        t3 = time.perf_counter()
        # mirror TuningSession.run: drain the staged append in the
        # interval-execution window (untimed — in production this runs
        # between the observe and the next suggest RPC, off both
        # critical paths)
        execute_appends(tuner.stage_appends(), fuse=False)
        suggest_times.append(t1 - t0)
        observe_times.append(t3 - t2)
        last_metrics = result.metrics
        # delta-durability cost at steady state: base snapshot at the
        # largest history size, then one framed+fsynced record per interval
        if t + 1 == delta_base:
            store.save("bench", tuner,
                       metadata={"n_observations": len(tuner.repo)})
        elif t + 1 > delta_base:
            t4 = time.perf_counter()
            store.save_delta("bench", {"input": inp, "feedback": feedback},
                             position=len(tuner.repo))
            append_times.append(time.perf_counter() - t4)
    store.close()
    append_bytes = [p.stat().st_size
                    for _, kind, p in store.artifacts("bench")
                    if kind == "segment"]

    checkpoint = _checkpoint_latency(tuner)
    delta = _delta_replay_latency(store, append_times, append_bytes,
                                  checkpoint, delta_base)
    delta_dir.cleanup()
    if verbose:
        print(f"checkpoint @ history {n_iterations}: "
              f"save {1e3 * checkpoint['save_seconds']:.2f} ms, "
              f"load {1e3 * checkpoint['load_seconds']:.2f} ms, "
              f"{checkpoint['bytes'] / 1024:.0f} KiB")
        print(f"delta @ history {delta_base}: append "
              f"{1e3 * delta['append_median_seconds']:.2f} ms / "
              f"{delta['append_mean_bytes'] / 1024:.1f} KiB per interval, "
              f"replay({delta['replay_records']}) "
              f"{1e3 * delta['replay_seconds']:.1f} ms, write cost "
              f"/{delta['write_cost_reduction_bytes']:.0f} (bytes) "
              f"/{delta['write_cost_reduction_seconds']:.0f} (latency)")

    suggest = np.asarray(suggest_times)
    observe = np.asarray(observe_times)
    total = suggest + observe
    by_history: Dict[str, Dict[str, float]] = {}
    for h in history_sizes:
        sl = slice(h, h + window)
        by_history[str(h)] = {
            "mean_seconds": float(total[sl].mean()),
            "median_seconds": float(np.median(total[sl])),
            "suggest_mean_seconds": float(suggest[sl].mean()),
            "observe_mean_seconds": float(observe[sl].mean()),
        }
        if verbose:
            stats = by_history[str(h)]
            print(f"history={h:>4}  suggest+observe mean="
                  f"{1e3 * stats['mean_seconds']:8.2f} ms  "
                  f"(suggest {1e3 * stats['suggest_mean_seconds']:.2f} ms, "
                  f"observe {1e3 * stats['observe_mean_seconds']:.2f} ms)")
    return {
        "workload": "tpcc-static",
        "window": window,
        "seed": seed,
        "n_iterations": n_iterations,
        "python": platform.python_version(),
        "by_history": by_history,
        "checkpoint": checkpoint,
        "checkpoint_delta": delta,
        "total_session_seconds": float(total.sum()),
    }


#: batch sizes for the rank-k append micro (k=1 is the steady-state
#: per-interval append; larger k are the grouped-absorption cases)
APPEND_BATCH_SIZES = (1, 4, 16)
#: synthetic joint-space dims for the append micro — sized like the
#: mysql57 space (40 knobs) plus the workload featurization
APPEND_CONFIG_DIM = 40
APPEND_CONTEXT_DIM = 15


def append_latency(history_sizes: Iterable[int] = HISTORY_SIZES,
                   batch_sizes: Iterable[int] = APPEND_BATCH_SIZES,
                   seed: int = 0, repeats: int = 7,
                   verbose: bool = True) -> Dict[str, object]:
    """Per-append latency of the rank-k Cholesky extension path.

    For each history size ``h`` a contextual GP is fitted once on ``h``
    synthetic rows; each measurement deep-copies it and times one
    ``update_batch`` of ``k`` rows (median over ``repeats``), reported
    as seconds *per appended row*.  ``sequential_k`` times the same
    ``k=max`` rows through ``k`` rank-1 updates on another copy, so
    ``batched_speedup`` isolates what the fused GEMM buys over the
    k-GEMV loop at the same history.
    """
    import copy

    from repro.gp import ContextualGP

    rng = np.random.default_rng(seed)
    batch_sizes = sorted(int(k) for k in batch_sizes)
    k_max = batch_sizes[-1]
    by_history: Dict[str, Dict[str, float]] = {}
    for h in sorted(int(h) for h in history_sizes):
        base = ContextualGP(APPEND_CONFIG_DIM, APPEND_CONTEXT_DIM)
        base.fit(rng.random((h, APPEND_CONFIG_DIM)),
                 rng.random((h, APPEND_CONTEXT_DIM)),
                 rng.normal(100.0, 5.0, h), optimize=False)
        new_cfg = rng.random((k_max, APPEND_CONFIG_DIM))
        new_ctx = rng.random((k_max, APPEND_CONTEXT_DIM))
        new_y = rng.normal(100.0, 5.0, k_max)
        stats: Dict[str, float] = {}
        for k in batch_sizes:
            times = []
            for _ in range(repeats):
                model = copy.deepcopy(base)
                t0 = time.perf_counter()
                model.update_batch(new_cfg[:k], new_ctx[:k], new_y[:k])
                times.append((time.perf_counter() - t0) / k)
            stats[f"k{k}_per_append_seconds"] = float(np.median(times))
        seq_times = []
        for _ in range(repeats):
            model = copy.deepcopy(base)
            t0 = time.perf_counter()
            for i in range(k_max):
                model.update(new_cfg[i], new_ctx[i], float(new_y[i]))
            seq_times.append((time.perf_counter() - t0) / k_max)
        stats["sequential_per_append_seconds"] = float(np.median(seq_times))
        stats["batched_speedup"] = (
            stats["sequential_per_append_seconds"]
            / stats[f"k{k_max}_per_append_seconds"])
        by_history[str(h)] = stats
        if verbose:
            per_k = "  ".join(
                f"k={k}: {1e3 * stats[f'k{k}_per_append_seconds']:.3f} ms"
                for k in batch_sizes)
            print(f"append history={h:>4}  {per_k}  "
                  f"(sequential {1e3 * stats['sequential_per_append_seconds']:.3f} ms, "
                  f"rank-{k_max} speedup {stats['batched_speedup']:.2f}x)")
    return {
        "config_dim": APPEND_CONFIG_DIM,
        "context_dim": APPEND_CONTEXT_DIM,
        "batch_sizes": list(batch_sizes),
        "repeats": repeats,
        "seed": seed,
        "by_history": by_history,
    }


def _checkpoint_latency(tuner, repeats: int = 5) -> Dict[str, float]:
    """Median save/load wall-clock of a full-state checkpoint of ``tuner``
    (called at the end of the session, i.e. at the largest history)."""
    import tempfile
    from pathlib import Path

    from repro.core import OnlineTune

    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        path = Path(tmp) / "bench.ckpt"
        saves, loads = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            tuner.checkpoint(path)
            saves.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            OnlineTune.resume(path)
            loads.append(time.perf_counter() - t0)
        size = path.stat().st_size
    return {
        "history": len(tuner.repo),
        "save_seconds": float(np.median(saves)),
        "load_seconds": float(np.median(loads)),
        "bytes": int(size),
    }


def _delta_replay_latency(store, append_times: List[float],
                          append_bytes: List[int], checkpoint: Dict[str, float],
                          delta_base: int, repeats: int = 3) -> Dict[str, float]:
    """Delta-durability cost block: per-interval append cost at steady
    state (history ~``delta_base``) and snapshot+segment replay latency,
    with the write-cost reduction vs a full-envelope checkpoint."""
    from repro.core import OnlineTune

    replays = []
    n_records = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        tuner, _meta, records = store.load_latest_chain("bench")
        assert isinstance(tuner, OnlineTune)
        n_records = tuner.replay(records)
        replays.append(time.perf_counter() - t0)
    mean_bytes = (sum(append_bytes) / max(1, len(append_times)))
    mean_seconds = float(np.mean(append_times)) if append_times else 0.0
    return {
        "history": int(delta_base),
        "append_mean_seconds": mean_seconds,
        "append_median_seconds": (float(np.median(append_times))
                                  if append_times else 0.0),
        "append_mean_bytes": float(mean_bytes),
        "replay_records": int(n_records),
        "replay_seconds": float(np.median(replays)),
        "snapshot_bytes": int(checkpoint["bytes"]),
        "write_cost_reduction_bytes": (float(checkpoint["bytes"] / mean_bytes)
                                       if mean_bytes else 0.0),
        "write_cost_reduction_seconds": (
            float(checkpoint["save_seconds"] / mean_seconds)
            if mean_seconds else 0.0),
    }


def refresh(as_baseline: bool = False, output: Path = OUTPUT_PATH,
            history_sizes: Iterable[int] = HISTORY_SIZES,
            window: int = WINDOW, seed: int = 0) -> Dict[str, object]:
    """Run the benchmark and merge results into the JSON report."""
    measured = run_benchmark(history_sizes, window, seed)
    measured["append"] = append_latency(history_sizes, seed=seed)
    report: Dict[str, object] = {}
    if output.exists():
        try:
            report = json.loads(output.read_text())
        except json.JSONDecodeError:
            report = {}
    key = "baseline" if as_baseline else "current"
    if key == "current" and "current" in report:
        # keep the previous PR's numbers around so each refresh also
        # reports the incremental speedup, not just the cumulative one
        report["previous"] = report["current"]
    report[key] = measured
    if as_baseline:
        # a re-recorded baseline invalidates any speedups computed
        # against leftover 'current'/'previous' entries (possibly from
        # another machine or code version); the next plain refresh
        # recomputes them against this baseline
        report.pop("speedup_at_largest_history", None)
        report.pop("speedup_vs_previous", None)
    else:
        largest = str(max(int(h) for h in measured["by_history"]))
        for ref_key, out_key in (("baseline", "speedup_at_largest_history"),
                                 ("previous", "speedup_vs_previous")):
            ref = report.get(ref_key)
            if not ref:
                continue
            base = ref["by_history"].get(largest, {}).get("mean_seconds")
            cur = measured["by_history"].get(largest, {}).get("mean_seconds")
            if base and cur:
                report[out_key] = {
                    "history": int(largest),
                    f"{ref_key}_mean_seconds": base,
                    "current_mean_seconds": cur,
                    "speedup": base / cur,
                }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-baseline", action="store_true",
                        help="record this run under the 'baseline' key")
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH)
    parser.add_argument("--window", type=int, default=WINDOW)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(HISTORY_SIZES))
    args = parser.parse_args(argv)
    refresh(as_baseline=args.as_baseline, output=args.output,
            history_sizes=args.sizes, window=args.window, seed=args.seed)


if __name__ == "__main__":
    main()
