"""``compare``: a verdict for every (end-to-end metric, workload) pair.

::

    python -m benchmarks.e2e compare BASE NEW

``BASE`` and ``NEW`` are results files (``--out``) or directories of
them; each holds one or more untraced runs per workload, e.g. ten seeds.
For each pair the base is the median of ``BASE``'s runs, and

* ``worse``      - ``NEW``'s median is worse than the base by more than
  the metric's bound (``BENCHMARK.json``, a share of the base);
* ``better``     - better by more than the bound;
* ``same``       - within the bound either way;
* ``unresolved`` - either side's quartile spread (a share of its median)
  exceeds the bound, so the bound cannot be judged - unless every run of
  ``NEW`` beats every run of ``BASE``, which is ``better``.

Every metric, ``setup_s`` included, is judged the same way.  Every ratio
prints with its base.  The exit code is 1 when any pair is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .common import load_spec


def load_runs(path: Path) -> List[Dict[str, object]]:
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() \
        else [Path(path)]
    runs = []
    for file in files:
        runs.extend(json.loads(file.read_text())["runs"])
    return [r for r in runs if not r["trace"]]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative worsening of the median)."""
    b, n = statistics.median(base), statistics.median(new)
    worse = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    if max(spread(base), spread(new)) > bound:
        beats = (max(new) < min(base) if better == "lower"
                 else min(new) > max(base))
        return ("better" if beats else "unresolved"), worse
    if worse > bound:
        return "worse", worse
    if worse < -bound:
        return "better", worse
    return "same", worse


def compare(base_runs, new_runs, spec) -> List[Dict[str, object]]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        if not base or not new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            result, worse = verdict(b, n, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"],
                         "base": statistics.median(b),
                         "new": statistics.median(n),
                         "ratio": statistics.median(n) / statistics.median(b),
                         "worse_by": worse, "bound": metric["bound"],
                         "spread_base": spread(b), "spread_new": spread(n),
                         "runs": (len(b), len(n)), "verdict": result})
    return rows


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.base), load_runs(args.new), load_spec())
    if not rows:
        print("no (workload, metric) pair present on both sides")
        return 1
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<25} "
              f"base {row['base']:.6g} {row['unit']} -> "
              f"new {row['new']:.6g} (ratio {row['ratio']:.4f}, "
              f"worse by {row['worse_by']:+.1%}, bound {row['bound']:.0%}, "
              f"spread {row['spread_base']:.1%}/{row['spread_new']:.1%}, "
              f"runs {row['runs'][0]}/{row['runs'][1]})  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} pairs: " + ", ".join(
        f"{v} {sum(r['verdict'] == v for r in rows)}"
        for v in ("better", "same", "worse", "unresolved")))
    return 1 if bad else 0
