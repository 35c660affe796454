"""Shared pieces: the metric contract, percentiles and process probes."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

#: suggest latency limit: the paper's tuning interval is 180 s and its
#: Table A1 keeps per-iteration tuning overhead under one second
LATENCY_LIMIT_MS = 1000.0

#: a tail percentile needs this many samples beyond it
TAIL_SAMPLES = 10


def load_spec(path: Path = SPEC_PATH) -> Dict[str, object]:
    """The benchmark contract: workloads, metric names, units, bounds."""
    return json.loads(Path(path).read_text())


def metric_units(spec: Dict[str, object], trace: bool) -> Dict[str, str]:
    """``name -> unit`` of the metrics one run must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


# -- distributions -----------------------------------------------------------

def tail_level(n: int) -> float:
    """The highest percentile with at least ``TAIL_SAMPLES`` samples
    beyond it, for a sample of ``n``."""
    if n <= TAIL_SAMPLES:
        return 50.0
    return 100.0 * (1.0 - TAIL_SAMPLES / n)


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of a sample (a quarter trimmed off each
    end).  Call latencies here are multimodal - cheap calls, calls that
    refit a model, calls that rehydrate a tenant - and the median often
    falls in a sparse gap between two modes, where a few calls crossing
    it move it by a third; the middle half's mean moves with them by a
    few per cent."""
    ordered = np.sort(np.asarray(values, dtype=float))
    cut = len(ordered) // 4
    return float(ordered[cut:len(ordered) - cut].mean())


def distribution(values: Sequence[float]) -> Dict[str, float]:
    """Median, interquartile mean and tail of one sample, with the
    tail's level and count."""
    n = len(values)
    level = tail_level(n)
    return {"p50": percentile(values, 50), "iqm": interquartile_mean(values),
            "tail": percentile(values, level), "tail_level": level, "n": n}


def windowed(values: Sequence[float], windows: int) -> Dict[str, float]:
    """Like :func:`distribution`, but the tail and the interquartile
    mean are medians over ``windows`` consecutive slices: one stall (a
    neighbour on the host, a collector pause) moves one slice, not the
    metric.  In an open loop a stall of 100 ms or more delays every
    request due during it, which once doubled a whole run's
    interquartile mean."""
    whole = distribution(values)
    if windows <= 1 or len(values) < windows * (TAIL_SAMPLES + 1):
        return whole
    size = len(values) // windows
    slices = [distribution(values[k * size:(k + 1) * size])
              for k in range(windows)]
    whole.update(tail=median(s["tail"] for s in slices),
                 iqm=median(s["iqm"] for s in slices),
                 tail_level=tail_level(size))
    return whole


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def split_setups(count: int) -> Tuple[int, int]:
    """How many of a run's ``count`` timed set-ups happen before its
    measurement and how many after.  Spread over the run, a few seconds
    of load from elsewhere on the host reach only some of them; back to
    back, they would all feel it."""
    return count - count // 2, count // 2


# -- processes ---------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``benchmarks``
    and ``repro`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT), str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# -- process probes (Linux /proc) --------------------------------------------

def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of one process, seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_cpu_seconds() -> Dict[str, float]:
    """Host-wide iowait and steal time (``/proc/stat``), seconds: a run
    whose tails moved alongside these shared the host with other load."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    tick = os.sysconf("SC_CLK_TCK")
    return {"iowait_s": int(fields[5]) / tick, "steal_s": int(fields[8]) / tick}


def dir_bytes(root: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass             # a segment compacted away mid-walk
    return total


# -- checks ------------------------------------------------------------------

def config_in_bounds(space, config: Dict[str, object]) -> bool:
    """Every knob present and inside its range or choice list."""
    if set(config) != set(space.names):
        return False
    return all(knob.clip(config[knob.name]) == config[knob.name]
               for knob in space)


class Checks:
    """Named pass/fail correctness checks of one run."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.results)

    def to_dict(self) -> Dict[str, object]:
        return {name: {"ok": ok, "detail": detail}
                for name, ok, detail in self.results}

