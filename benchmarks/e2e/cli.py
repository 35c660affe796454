"""Command line: run workloads, or compare two sets of results.

Run (one process per workload and seed when there are several)::

    python -m benchmarks.e2e [--workload NAME ...] [--seed N ...]
        [--seconds S] [--trace {0,1}] [--out PATH]

Every metric prints as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any
correctness check fails.

Compare::

    python -m benchmarks.e2e compare BASE NEW

``BASE`` and ``NEW`` are results files written by ``--out`` (or
directories of them); see :mod:`.compare`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from .common import (
    REPO_ROOT,
    host_cpu_seconds,
    load_spec,
    median,
    metric_units,
)

WORK_ROOT = REPO_ROOT / ".e2e"
DEFAULT_OUT = WORK_ROOT / "results.json"
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, spec: Dict[str, object]) -> Dict[str, object]:
    """Run one workload in this process and shape its result record."""
    from .fleet import FLEETS, run_fleet
    from .sessions import SESSION_WORKLOADS, run_session

    if workload in SESSION_WORKLOADS:
        run = run_session
    elif workload in FLEETS:
        run = run_fleet
    else:
        raise ValueError(f"unknown workload {workload!r}")
    host0, t0 = host_cpu_seconds(), time.monotonic()
    raw = run(workload, seed, seconds, work, trace=trace)
    host1, wall = host_cpu_seconds(), time.monotonic() - t0
    host = {key: host1[key] - host0[key] for key in host0}
    host["steal_share"] = host["steal_s"] / (wall * os.cpu_count())
    raw["details"]["host"] = host
    return shape_record(workload, seed, seconds, trace, raw, spec)


def shape_record(workload: str, seed: int, seconds: float, trace: bool,
                 raw: Dict[str, object],
                 spec: Dict[str, object]) -> Dict[str, object]:
    """Validate a workload's raw output against the contract."""
    units = metric_units(spec, trace)
    values = raw["layers"]["metrics"] if trace else raw["metrics"]
    if set(values) != set(units):
        raise RuntimeError(
            f"{workload}: metrics {sorted(set(values) ^ set(units))} do not "
            f"match BENCHMARK.json")
    for name, value in values.items():
        bad = not math.isfinite(value) or (not trace and value <= 0)
        if bad:
            raise RuntimeError(f"{workload}: {name}={value!r} is not a "
                               f"finite{'' if trace else ' positive'} number")
    checks = raw["checks"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "correct": checks.ok,
        "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
        "checks": checks.to_dict(),
        "details": raw["details"],
        "env": environment(),
    }
    if trace:
        record["trace_analysis"] = raw["layers"]["analysis"]
        record["end_to_end"] = raw["metrics"]
    return record


def environment() -> Dict[str, object]:
    """Settings that move the numbers; BLAS threads are recorded, never
    set, because they are a finding of their own."""
    env = {key: os.environ.get(key)
           for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "MKL_NUM_THREADS")}
    env.update({"nproc": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine()})
    return env


def print_record(record: Dict[str, object]) -> None:
    for name, metric in record["metrics"].items():
        print(f"{record['workload']} {name} {metric['value']!r} "
              f"{metric['unit']}")
    for name, check in record["checks"].items():
        status = "ok" if check["ok"] else "FAILED"
        detail = f" ({check['detail']})" if check["detail"] and \
            not check["ok"] else ""
        print(f"# check {record['workload']} {name} {status}{detail}")


def summary_line(records: List[Dict[str, object]]) -> str:
    """The final JSON line: flat metrics for a single run, else the
    per-workload median across runs."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {}
        for workload in dict.fromkeys(r["workload"] for r in records):
            runs = [r for r in records if r["workload"] == workload]
            metrics[workload] = {
                name: {"value": median(r["metrics"][name]["value"]
                                       for r in runs),
                       "unit": m["unit"]}
                for name, m in runs[0]["metrics"].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics})


def _run_subprocess(workload: str, seed: int, seconds: float, trace: bool,
                    out: Path) -> Optional[Dict[str, object]]:
    cmd = [sys.executable, str(RUN_SCRIPT), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace)), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in proc.stdout.splitlines()
             if not line.startswith("{")]
    print("\n".join(lines), flush=True)
    if not out.exists():
        print(f"# {workload} seed {seed}: run failed (rc={proc.returncode})",
              flush=True)
        return None
    return json.loads(out.read_text())["runs"][0]


def write_results(path: Path, records: List[Dict[str, object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": records}, indent=1) + "\n")


def run_main(argv: List[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=None, help="workloads to run (default: all)")
    parser.add_argument("--seed", nargs="+", type=int, default=[0],
                        help="input seeds; each makes its own run")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results JSON (default .e2e/results.json)")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    trace = bool(args.trace)

    runs = [(w, s) for w in workloads for s in args.seed]
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=WORK_ROOT) as tmp:
        if len(runs) == 1:
            workload, seed = runs[0]
            records = [run_one(workload, seed, args.seconds, trace,
                               Path(tmp), spec)]
            print_record(records[0])
        else:
            records = []
            for k, (workload, seed) in enumerate(runs):
                record = _run_subprocess(workload, seed, args.seconds, trace,
                                         Path(tmp) / f"run-{k}.json")
                if record is None:
                    return 1
                records.append(record)
    write_results(args.out, records)
    print(summary_line(records), flush=True)
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from .compare import compare_main
        return compare_main(argv[1:])
    return run_main(argv)
