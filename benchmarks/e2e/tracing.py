"""Spans around each layer's public entry points, installed from outside.

A :class:`Tracer` replaces selected functions and methods of the
``repro`` packages with wrappers that record one span per call: name,
start, end (``CLOCK_MONOTONIC`` nanoseconds, shared by every process on
the host, so client and frontend records join), the enclosing span on
the same thread, and an optional amount (rows appended, bytes written).
A few asynchronous transport steps are recorded as point marks keyed by
request id instead, because a coroutine's wall time includes whatever
else the event loop ran meanwhile.  Everything stays in memory until
:meth:`Tracer.dump` or the in-process analysis.

Nothing in ``src/`` knows about this module; :meth:`Tracer.uninstall`
restores every original.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, class or None for a module function, attribute, span name)
Target = Tuple[str, Optional[str], str, str]

LAYER_TARGETS: Dict[str, List[Target]] = {
    "core": [
        ("repro.core.tuner", "OnlineTune", "suggest", "core.suggest"),
        ("repro.core.tuner", "OnlineTune", "observe", "core.observe"),
        ("repro.core.context", "ContextFeaturizer", "featurize",
         "core.featurize"),
        ("repro.core.clustering", "ClusteredModels", "select",
         "core.cluster_select"),
        ("repro.core.clustering", "ClusteredModels", "add_observation",
         "core.cluster_update"),
        ("repro.core.clustering", "ClusteredModels", "model_for",
         "core.model_for"),
        ("repro.core.safety", "SafetyAssessor", "assess", "core.safety"),
        ("repro.core.safety", "SafetyAssessor", "resolve_conflict",
         "core.safety"),
        ("repro.core.tuner", None, "select_candidate", "core.selection"),
        ("repro.core.subspace", "Subspace", "set_importances",
         "core.importance"),
    ],
    "gp": [
        ("repro.gp.contextual", "ContextualGP", "fit", "gp.fit"),
        ("repro.gp.contextual", "ContextualGP", "predict", "gp.predict"),
        ("repro.gp.contextual", "ContextualGP", "update", "gp.append"),
        ("repro.gp.contextual", "ContextualGP", "update_batch", "gp.append"),
        ("repro.gp.batching", None, "execute_appends", "gp.append"),
    ],
    "dbms": [
        ("repro.dbms.engine", "SimulatedMySQL", "run_interval",
         "dbms.interval"),
        ("repro.dbms.engine", "SimulatedMySQL", "observe_snapshot",
         "dbms.interval"),
        ("repro.dbms.engine", "SimulatedMySQL", "default_performance",
         "dbms.interval"),
        ("repro.dbms.engine", "SimulatedMySQL", "profile", "dbms.interval"),
    ],
    "service": [
        ("repro.service.service", "TuningService", "step_batch",
         "service.round"),
        ("repro.service.service", "TuningService", "create",
         "service.create"),
        ("repro.service.service", "TuningService", "suggest", "service.call"),
        ("repro.service.service", "TuningService", "observe", "service.call"),
        ("repro.service.service", "TuningService", "resume", "service.call"),
        ("repro.service.service", "TuningService", "checkpoint",
         "service.call"),
        ("repro.service.service", "TuningService", "close", "service.call"),
        ("repro.core.tuner", "OnlineTune", "replay", "service.replay"),
    ],
    "store": [
        ("repro.service.store", "CheckpointStore", "save_delta",
         "store.delta"),
        ("repro.service.store", "CheckpointStore", "save", "store.snapshot"),
        ("repro.service.store", "CheckpointStore", "load_latest_chain",
         "store.load"),
        ("repro.service.store", "CheckpointStore", "publish_owner",
         "store.publish"),
    ],
    "lease": [
        ("repro.service.lease", "LeaseManager", "acquire", "lease.op"),
        ("repro.service.lease", "LeaseManager", "renew_if_due", "lease.op"),
        ("repro.service.lease", "LeaseManager", "release", "lease.op"),
    ],
    "transport": [
        ("repro.service.transport.protocol", None, "encode_frame",
         "transport.codec"),
        ("repro.service.transport.protocol", None, "_decode_body",
         "transport.codec"),
        ("repro.service.transport.protocol", None, "encode_suggest_input",
         "transport.codec"),
        ("repro.service.transport.protocol", None, "decode_suggest_input",
         "transport.codec"),
        ("repro.service.transport.protocol", None, "encode_feedback",
         "transport.codec"),
        ("repro.service.transport.protocol", None, "decode_feedback",
         "transport.codec"),
        ("repro.service.transport.server", None, "_encode_result",
         "transport.codec"),
    ],
}

#: layers traced in each process
SESSION_LAYERS = ("core", "gp", "dbms")
FRONTEND_LAYERS = ("core", "gp", "service", "store", "lease", "transport")
CLIENT_LAYERS = ("dbms",)


def _rows(args, result) -> int:
    """Rows absorbed by an append call (ContextualGP.update[_batch]
    takes configs first; execute_appends returns its row count)."""
    if isinstance(result, dict):
        return int(result.get("rows", 0))
    first = args[1]
    shape = getattr(first, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


class Tracer:
    """In-memory span and mark recorder (one per process)."""

    def __init__(self) -> None:
        #: (id, name, start_ns, end_ns, parent id or -1, thread, amount)
        self.spans: List[Tuple[int, str, int, int, int, int, int]] = []
        #: (kind, request id, t_ns, tenant, op)
        self.marks: List[Tuple[str, object, int, Optional[str],
                               Optional[str]]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}
        self._restore: List[Tuple[object, str, object]] = []
        self._segment_sizes: Dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._threads.setdefault(threading.get_ident(),
                                     len(self._threads))
        return stack

    def _wrap(self, fn: Callable, name: str,
              amount: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (-1, "")
            sid = next(tracer._ids)
            stack.append((sid, name))
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                qty = 0
                if amount is not None and parent[1] != name:
                    qty = amount(args, result)
                tracer.spans.append(
                    (sid, name, start, end, parent[0],
                     tracer._threads[threading.get_ident()], qty))
        return traced

    def mark(self, kind: str, request_id, tenant: Optional[str] = None,
             op: Optional[str] = None) -> None:
        self.marks.append((kind, request_id, time.monotonic_ns(), tenant, op))

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, layers: Iterable[str]) -> "Tracer":
        amounts = {"gp.append": _rows,
                   "store.snapshot": self._snapshot_bytes,
                   "store.delta": self._delta_bytes,
                   "service.replay": lambda args, result: int(result or 0)}
        for layer in layers:
            for module_name, cls_name, attr, name in LAYER_TARGETS[layer]:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name) if cls_name else module
                fn = owner.__dict__[attr]
                self._patch(owner, attr,
                            self._wrap(fn, name, amounts.get(name)))
        return self

    def install_client_marks(self) -> None:
        """Record the send time of every tenant request frame."""
        from repro.service.transport import protocol
        write_frame = protocol.write_frame
        tracer = self

        async def traced_write(writer, obj):
            if isinstance(obj, dict) and obj.get("tenant"):
                tracer.mark("send", obj.get("id"), obj.get("tenant"),
                            obj.get("op"))
            return await write_frame(writer, obj)
        self._patch(protocol, "write_frame", traced_write)

    def install_server_marks(self) -> None:
        """Record when the frontend reads, schedules and answers each
        request: accept -> take (its dispatcher round starts) -> done."""
        from repro.service.transport import protocol, server
        tracer = self
        write_frame = protocol.write_frame
        handle = server.TuningServer._handle_request
        take_round = server.TuningServer._take_round

        async def traced_write(writer, obj):
            result = await write_frame(writer, obj)
            if isinstance(obj, dict):
                tracer.mark("done", obj.get("id"))
            return result

        async def traced_handle(self_, request, conn):
            if isinstance(request, dict):
                tracer.mark("accept", request.get("id"),
                            request.get("tenant"), request.get("op"))
            return await handle(self_, request, conn)

        def traced_take(self_):
            round_ = take_round(self_)
            for pending in round_:
                tracer.mark("take", pending.request_id, pending.tenant,
                            pending.op)
            return round_

        self._patch(protocol, "write_frame", traced_write)
        self._patch(server.TuningServer, "_handle_request", traced_handle)
        self._patch(server.TuningServer, "_take_round", traced_take)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- amounts -------------------------------------------------------------
    @staticmethod
    def _snapshot_bytes(args, result) -> int:
        return Path(result).stat().st_size if result is not None else 0

    def _delta_bytes(self, args, result) -> int:
        if result is None:
            return 0
        key = str(result)
        size = Path(result).stat().st_size
        grown = size - self._segment_sizes.get(key, 0)
        self._segment_sizes[key] = size
        return grown

    # -- cost and persistence ------------------------------------------------
    def span_cost_ns(self, n: int = 20000) -> float:
        """Measured cost a traced call adds over a plain call."""
        scratch = Tracer()

        def noop(*args):
            return None
        traced = scratch._wrap(noop, "calibrate")
        t0 = time.perf_counter_ns()
        for _ in range(n):
            noop(1)
        t1 = time.perf_counter_ns()
        for _ in range(n):
            traced(1)
        t2 = time.perf_counter_ns()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    def to_dict(self) -> Dict[str, object]:
        return {"spans": [list(s) for s in self.spans],
                "marks": [list(m) for m in self.marks],
                "span_cost_ns": self.span_cost_ns()}

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(),
                                         separators=(",", ":")))


# -- analysis ----------------------------------------------------------------

Interval = Tuple[int, int]


def merge(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of half-open intervals, sorted and disjoint."""
    out: List[List[int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(a, b) for a, b in out]


def length(intervals: Sequence[Interval]) -> int:
    return sum(b - a for a, b in intervals)


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two merged interval lists."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def in_windows(t: int, windows: Sequence[Interval]) -> bool:
    return any(a <= t < b for a, b in windows)


def layer_totals(spans: Sequence[Sequence], windows: Sequence[Interval]
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: self time (ns), calls and amount, for spans that
    start inside ``windows``.  Self time is a span's duration minus the
    part its direct children cover (children nest on their thread)."""
    child_ns: Dict[int, int] = {}
    for sid, _name, start, end, parent, _tid, _qty in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals: Dict[str, Dict[str, float]] = {}
    for sid, name, start, end, _parent, _tid, qty in spans:
        if not in_windows(start, windows):
            continue
        entry = totals.setdefault(name, {"self_ns": 0, "calls": 0,
                                         "amount": 0})
        entry["self_ns"] += (end - start) - child_ns.get(sid, 0)
        entry["calls"] += 1
        entry["amount"] += qty
    return totals


def coverage(spans: Sequence[Sequence], busy: Sequence[Interval]) -> int:
    """Nanoseconds of ``busy`` covered by at least one root span."""
    roots = merge((s[2], s[3]) for s in spans if s[4] < 0)
    return length(intersect(roots, busy))


class Occupancy:
    """When spans with given names were running, for overlap queries."""

    def __init__(self, spans: Sequence[Sequence], names: Sequence[str]):
        self.intervals = merge((s[2], s[3]) for s in spans if s[1] in names)
        self._starts = [a for a, _b in self.intervals]

    def within(self, lo: int, hi: int) -> int:
        """Nanoseconds of [lo, hi) covered."""
        i = max(0, bisect.bisect_right(self._starts, lo) - 1)
        total = 0
        while i < len(self.intervals) and self.intervals[i][0] < hi:
            a, b = self.intervals[i]
            total += max(0, min(b, hi) - max(a, lo))
            i += 1
        return total


#: per-layer metric -> span name whose self time it reports, in ms per
#: interval (each workload exercises every one of these)
_SELF_MS = {
    "core.suggest_self_ms": "core.suggest",
    "core.observe_self_ms": "core.observe",
    "core.featurize_ms": "core.featurize",
    "core.cluster_select_ms": "core.cluster_select",
    "core.cluster_update_ms": "core.cluster_update",
    "core.model_for_ms": "core.model_for",
    "core.safety_ms": "core.safety",
    "core.selection_ms": "core.selection",
    "core.importance_ms": "core.importance",
    "gp.fit_ms": "gp.fit",
    "gp.predict_ms": "gp.predict",
    "gp.append_ms": "gp.append",
    "dbms.interval_ms": "dbms.interval",
}
_CALLS = {"core.importance_calls": "core.importance",
          "gp.fit_calls": "gp.fit",
          "store.snapshot_calls": "store.snapshot",
          "store.load_calls": "store.load",
          "lease.ops": "lease.op"}
_AMOUNTS = {"gp.append_rows": "gp.append",
            "service.replay_records": "service.replay"}
_BYTES_PER_INTERVAL = {"store.delta_bytes": "store.delta",
                       "store.snapshot_bytes": "store.snapshot"}
_SHARE_LAYERS = ("core", "gp", "dbms", "service", "store", "lease",
                 "transport")


def layer_metrics(totals: Dict[str, Dict[str, float]], pairs: int,
                  busy_ns: float, covered_ns: float, overhead_ns: float,
                  quality: Dict[str, float],
                  share_totals: Optional[Dict[str, Dict[str, float]]] = None,
                  extra: Optional[Dict[str, float]] = None,
                  analysis: Optional[Dict[str, object]] = None
                  ) -> Dict[str, object]:
    """Turn span totals into the per-layer metrics of ``BENCHMARK.json``.

    ``busy_ns`` is the traced end-to-end time the layers decompose and
    ``covered_ns`` the part of it inside some span; ``share_totals``
    (default ``totals``) are the spans of the process that busy time
    belongs to.  Layers a workload never enters report 0.
    """
    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics: Dict[str, float] = {}
    for metric, name in _SELF_MS.items():
        metrics[metric] = get(name, "self_ns") / pairs / 1e6
    for metric, name in _CALLS.items():
        metrics[metric] = get(name, "calls")
    for metric, name in _AMOUNTS.items():
        metrics[metric] = get(name, "amount")
    for metric, name in _BYTES_PER_INTERVAL.items():
        metrics[metric] = get(name, "amount") / pairs
    source = totals if share_totals is None else share_totals
    for layer in _SHARE_LAYERS:
        self_ns = sum(v["self_ns"] for k, v in source.items()
                      if k.split(".")[0] == layer)
        metrics[f"{layer}.share"] = self_ns / busy_ns
    metrics["residual"] = max(0.0, busy_ns - covered_ns) / busy_ns
    metrics["trace_overhead"] = overhead_ns / busy_ns
    metrics["core.cum_improvement"] = quality["cum_improvement"]
    metrics["core.unsafe_count"] = quality["unsafe_count"]
    metrics["core.failure_count"] = quality["failure_count"]
    metrics.update({"service.round_width_mean": 0.0,
                    "service.lru_hit_rate": 1.0,
                    "transport.queue_wait_share": 0.0,
                    "transport.rejected": 0, "client.retries": 0,
                    "client.redirects": 0})
    metrics.update(extra or {})
    return {"metrics": metrics, "busy_s": busy_ns / 1e9, "pairs": pairs,
            "analysis": analysis or {}}
