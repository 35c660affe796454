"""Fleet workloads: one ``repro-service serve`` subprocess, one client.

The client is this process: one asyncio thread, one TCP connection
(:class:`~repro.service.transport.client.AsyncServiceClient`).  Each
tenant is a simulated MySQL instance (5-knob case-study space) running
a tpcc/ycsb/twitter mix of 5:3:2; its feedback comes from the simulator,
client-side, so the frontend sees realistic trajectories.  Workload
traces and each tenant's tuner seed are fixed; ``--seed`` draws every
instance's measurement noise (see ``sessions`` for why), the replayed
tenants and the cold-tenant order.

A run has these steps:

1. **Populate** (input generation, not timed): tenants are created and
   warmed in-process through ``TuningService`` and closed, leaving one
   snapshot each in a store directory.
2. **Set up** ``setups`` times, each on a fresh copy of that store:
   spawn the frontend, wait for ``READY``, connect, and (``hydrate``)
   ``resume`` every tenant.  ``setup_s`` is the median.  The first
   part of the set-ups (``common.split_setups``) runs before the
   measurement, and the last of those frontends serves it; the rest run
   after it.
3. **Open loop** (``rate > 0``; ``OPEN_SHARE`` of the budget): tenant
   ``i``'s interval ``k`` is due at ``start + (i / n + k) * n / rate``;
   each interval sends suggest, runs the simulator, then sends observe.
   Suggest latency counts from the due time, so a stall also charges
   the requests it delays.
4. **Closed loop** (the rest of the budget): a fixed tenant sequence
   issued back to back with at most ``window`` intervals in flight, one
   per tenant.  ``max_rate_per_s`` is the rate of intervals whose
   suggest met the latency limit.  A workload without an open loop
   takes every metric from here.

   The closed loop does a fixed amount of work - ``closed_rate`` times
   its share of the budget, in intervals - not as many intervals as fit.
   An interval's cost grows with its tenant's history (re-clustering,
   GP refits), so ``fleet-steady``'s rate halves within eight seconds;
   a time-bounded loop would let a faster run reach the dearer
   intervals sooner and measure different work.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .common import (
    LATENCY_LIMIT_MS,
    REPO_ROOT,
    Checks,
    child_env,
    config_in_bounds,
    dir_bytes,
    median,
    percentile,
    proc_cpu_seconds,
    proc_hwm_mb,
    split_setups,
    windowed,
)
from .tracing import (
    CLIENT_LAYERS,
    Occupancy,
    Tracer,
    coverage,
    layer_metrics,
    layer_totals,
    merge,
)

#: (workload, weight): tenant i runs the i-th entry of the expanded cycle
WORKLOAD_MIX = (("tpcc", 5), ("ycsb", 3), ("twitter", 2))

#: fixed workload-trace seed (the tuner seed of tenant i is i)
TRACE_SEED = 0

#: a valid open-loop run keeps the generator within this of schedule
MAX_GENERATOR_LATE_MS = 10.0

#: tenants whose full interval stream is replayed in-process as a check
REPLAY_SAMPLE = 2

#: open-loop latency tails and interquartile means are medians over this
#: many consecutive slices.  A closed loop with one interval in flight
#: is not sliced: a stall there delays one call, and its slices differ
#: in work (every create lands in the first)
TAIL_WINDOWS = 3

#: share of the budget a workload with an open loop spends in it
OPEN_SHARE = 0.6

#: server spans that stall a whole dispatcher round when they run
HEAVY_SPANS = ("core.importance", "gp.fit", "core.featurize",
               "service.create", "service.replay", "store.snapshot",
               "store.load")


@dataclass(frozen=True)
class FleetShape:
    """Size and traffic of one fleet workload."""

    tenants: int              # populated before the frontend starts
    warm_base: int            # tenant i starts at history
    warm_mod: int             #   warm_base + (37 * i) % warm_mod
    window: int               # closed loop: intervals in flight
    closed_rate: float        # closed loop: intervals per budget second
    rate: float = 0.0         # open-loop intervals/s (0: no open loop)
    max_live: Optional[int] = None    # --max-live; None keeps the default
    hot: int = 0              # tenants 0..hot-1 are hot ...
    hot_slots: int = 0        # ... and take this many of every 10 steps
    creates: int = 0          # tenants created during the closed loop,
    create_every: int = 0     #   one every this many steps, then hot
    hydrate: bool = False     # set-up resumes every tenant
    setups: int = 5

    def warm(self, i: int) -> int:
        return self.warm_base + (37 * i) % self.warm_mod

    def steps(self, seed: int) -> Iterator[Tuple[str, int]]:
        """The closed loop's ``("pair", i)`` / ``("create", i)`` order."""
        if not self.hot:
            k = 0
            while True:
                yield "pair", k % self.tenants
                k += 1
        hot = list(range(self.hot))
        cold = list(range(self.hot, self.tenants))
        random.Random(seed).shuffle(cold)
        step = created = 0
        while True:
            if created < self.creates and \
                    step == (created + 1) * self.create_every:
                new = self.tenants + created
                created += 1
                hot.append(new)
                yield "create", new
            if step % 10 < self.hot_slots:
                yield "pair", hot[(step // 10 * self.hot_slots
                                   + step % 10) % len(hot)]
            else:
                cold_slots = 10 - self.hot_slots
                yield "pair", cold[(step // 10 * cold_slots
                                    + step % 10 - self.hot_slots)
                                   % len(cold)]
            step += 1


FLEETS: Dict[str, FleetShape] = {
    # every call hits a hydrated session past its featurizer warm-up:
    # the per-interval hot path.  closed_rate is about the rate a
    # 2-vCPU host sustains, so each phase takes about its budget share
    "fleet-steady": FleetShape(tenants=32, warm_base=5, warm_mod=45,
                               window=32, closed_rate=180.0, rate=50.0,
                               hydrate=True),
    # twice as many tenants as LRU slots, 3 in 10 intervals on a cold
    # tenant, plus creates: rehydration, replay and first fits.  One
    # interval in flight, so a hit never waits behind a rehydration
    "fleet-churn": FleetShape(tenants=32, warm_base=5, warm_mod=41,
                              window=1, closed_rate=24.0, max_live=16,
                              hot=8, hot_slots=7, creates=4,
                              create_every=25),
}


def tenant_id(i: int) -> str:
    return f"t{i:03d}"


class Tenants:
    """Client-side state: each tenant's simulated instance and position."""

    def __init__(self, total: int, seed: int) -> None:
        from repro.dbms import PerformanceModel, SimulatedMySQL
        from repro.harness.experiments import WORKLOAD_FACTORIES
        from repro.knobs import case_study_space
        self.space = case_study_space()
        cycle = [name for name, weight in WORKLOAD_MIX for _ in range(weight)]
        workloads = {name: WORKLOAD_FACTORIES[name](seed=TRACE_SEED)
                     for name, _ in WORKLOAD_MIX}
        self.kind = [cycle[i % len(cycle)] for i in range(total)]
        # the safety reference is the space's default configuration: a
        # hosted tenant's tuner starts there (the service API has no
        # start(initial_config) call)
        self.db = [SimulatedMySQL(self.space, workloads[self.kind[i]],
                                  model=PerformanceModel(noise_std=0.02),
                                  seed=1000 * seed + i)
                   for i in range(total)]
        self.history = [0] * total
        self.last_metrics: List[Dict[str, float]] = [{} for _ in range(total)]
        # snapshots and tau depend only on (workload, interval)
        self._shared: Dict[Tuple[str, int], tuple] = {}

    @staticmethod
    def spec(i: int):
        from repro.service.service import TenantSpec
        return TenantSpec(space="case_study", seed=i)

    def next_input(self, i: int):
        from repro.baselines.base import SuggestInput
        t = self.history[i]
        key = (self.kind[i], t)
        if key not in self._shared:
            db = self.db[i]
            self._shared[key] = (db.observe_snapshot(t),
                                 db.default_performance(t),
                                 db.profile(t).is_olap)
        snapshot, tau, is_olap = self._shared[key]
        return SuggestInput(iteration=t, snapshot=snapshot,
                            metrics=self.last_metrics[i],
                            default_performance=tau, is_olap=is_olap)

    def run_interval(self, i: int, inp, config):
        """Execute the interval on tenant i's instance; advance it."""
        from repro.baselines.base import Feedback
        result = self.db[i].run_interval(inp.iteration, config)
        perf = result.objective(inp.is_olap)
        self.last_metrics[i] = result.metrics
        self.history[i] += 1
        return Feedback(iteration=inp.iteration, config=config,
                        performance=perf, metrics=result.metrics,
                        failed=result.failed,
                        default_performance=inp.default_performance)


def populate(root: Path, shape: FleetShape, tenants: Tenants) -> None:
    """Create and warm every tenant in-process, then close it, so the
    store holds one snapshot per tenant and no live lease."""
    from repro.service.service import TuningService
    service = TuningService(root, durability="snapshot")
    for i in range(shape.tenants):
        tid = tenant_id(i)
        service.create(tid, tenants.spec(i))
        for _ in range(shape.warm(i)):
            inp = tenants.next_input(i)
            config = service.suggest(tid, inp)
            service.observe(tid, tenants.run_interval(i, inp, config))
        service.close(tid, register_knowledge=False)


# -- frontend process --------------------------------------------------------

class Frontend:
    """One ``repro-service serve`` subprocess (optionally traced)."""

    def __init__(self, store: Path, shape: FleetShape, log: Path,
                 trace_out: Optional[Path] = None) -> None:
        serve = ["--port", "0", "--store-root", str(store)]
        if shape.max_live is not None:
            serve += ["--max-live", str(shape.max_live)]
        if trace_out is None:
            cmd = [sys.executable, "-u", "-m", "repro.service.cli", "serve"]
        else:
            cmd = [sys.executable, "-u", "-m", "benchmarks.e2e.traced_serve",
                   "--trace-out", str(trace_out), "--"]
        self.log_path = log
        self.store = store
        self._log = open(log, "w")
        self.proc = subprocess.Popen(cmd + serve, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=str(REPO_ROOT))
        self.address: Optional[Tuple[str, int]] = None

    async def ready(self, timeout: float = 120.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"frontend exited before READY (rc={self.proc.returncode})"
                    f": {self.log_path.read_text()[-2000:]}")
            for line in self.log_path.read_text().splitlines():
                if line.startswith("READY "):
                    _ready, host, port, _owner = line.split()
                    self.address = (host, int(port))
                    return self.address
            await asyncio.sleep(0.01)
        raise RuntimeError("frontend never printed READY")

    def stop(self, timeout: float = 60.0) -> Tuple[int, str]:
        """SIGINT (clean drain); returns (exit code, log text)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            rc = self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=10)
            self._log.close()
        return rc, self.log_path.read_text()


# -- the load ----------------------------------------------------------------

@dataclass
class PairRecord:
    tenant: int
    phase: str                # "open" or "closed"
    due: float                # open loop: schedule time; closed: = send
    send: float
    suggest_reply: float
    observe_send: float
    observe_reply: float
    idle_at_due: bool

    @property
    def suggest_ms(self) -> float:
        return (self.suggest_reply - self.due) * 1e3

    @property
    def observe_ms(self) -> float:
        return (self.observe_reply - self.observe_send) * 1e3


@dataclass
class Load:
    """Mutable state of the measured traffic."""

    shape: FleetShape
    tenants: Tenants
    client: object
    samples: Tuple[int, ...]
    pairs: List[PairRecord] = field(default_factory=list)
    sampled: Dict[int, list] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    configs_ok: bool = True
    quality: Dict[str, float] = field(default_factory=lambda: {
        "cum_improvement": 0.0, "unsafe_count": 0, "failure_count": 0})
    creates_ms: List[float] = field(default_factory=list)
    attempted: int = 0

    async def pair(self, i: int, phase: str, due: Optional[float],
                   idle: bool = True) -> bool:
        """One interval of tenant i; False (and recorded) if a call
        failed, after which the tenant sends nothing more."""
        from repro.harness.runner import UNSAFE_TOLERANCE
        from repro.service.transport import protocol
        tid = tenant_id(i)
        inp = self.tenants.next_input(i)
        send = time.monotonic()
        self.attempted += 2
        try:
            config = await self.client.suggest(tid, inp)
            reply = time.monotonic()
            feedback = self.tenants.run_interval(i, inp, config)
            observe_send = time.monotonic()
            await self.client.observe(tid, feedback)
            observe_reply = time.monotonic()
        except Exception as exc:     # counted; the run is then incorrect
            self.failures.append(f"{tid} {phase}: {exc!r}")
            return False
        self.configs_ok &= config_in_bounds(self.tenants.space, config)
        tau = inp.default_performance
        self.quality["cum_improvement"] += feedback.performance - tau
        self.quality["unsafe_count"] += bool(
            feedback.failed
            or feedback.performance < tau - UNSAFE_TOLERANCE * abs(tau))
        self.quality["failure_count"] += bool(feedback.failed)
        if i in self.samples:
            self.sampled.setdefault(i, []).append(
                (inp, protocol.plain(config), feedback))
        self.pairs.append(PairRecord(i, phase, send if due is None else due,
                                     send, reply, observe_send,
                                     observe_reply, idle))
        return True

    async def open_loop(self, start: float, duration: float) -> None:
        n, rate = self.shape.tenants, self.shape.rate

        async def stream(i: int) -> None:
            k = 0
            while (i / n + k) * n / rate < duration:
                due = start + (i / n + k) * n / rate
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                if not await self.pair(i, "open", due, idle=delay > 0):
                    return
                k += 1

        await asyncio.gather(*(stream(i) for i in range(n)))

    async def closed_loop(self, steps: Iterator[Tuple[str, int]],
                          pairs: int) -> Tuple[float, float]:
        """Issue the first ``pairs`` intervals of ``steps`` back to back,
        at most ``window`` in flight and one per tenant; a failed call
        ends the loop.  Returns the phase's (start, end)."""
        slots = asyncio.Semaphore(self.shape.window)
        idle: Dict[int, asyncio.Event] = {}
        tasks = []

        async def run(i: int, done: asyncio.Event) -> None:
            await self.pair(i, "closed", None)
            done.set()
            slots.release()

        start = time.monotonic()
        for kind, i in steps:
            if len(tasks) >= pairs or self.failures:
                break
            if kind == "create":
                t0 = time.monotonic()
                self.attempted += 1
                try:
                    await self.client.create(tenant_id(i),
                                             self.tenants.spec(i))
                except Exception as exc:     # counted, like pair()
                    self.failures.append(f"{tenant_id(i)} create: {exc!r}")
                self.creates_ms.append((time.monotonic() - t0) * 1e3)
                continue
            await slots.acquire()
            if i in idle:
                await idle[i].wait()         # the tenant's previous interval
            idle[i] = asyncio.Event()
            tasks.append(asyncio.ensure_future(run(i, idle[i])))
        await asyncio.gather(*tasks)
        return start, time.monotonic()


# -- the run -----------------------------------------------------------------

async def _cold_start(shape: FleetShape, seed: int, work: Path,
                      store0: Path, k: int,
                      trace_out: Optional[Path] = None):
    """Set-up ``k`` on a fresh copy of the populated store: (frontend,
    connected client, seconds)."""
    from repro.service.transport.client import AsyncServiceClient

    store = work / f"store-{k}"
    shutil.copytree(store0, store)
    t0 = time.monotonic()
    frontend = Frontend(store, shape, work / f"frontend-{k}.log",
                        trace_out=trace_out)
    try:
        await frontend.ready()
        client = AsyncServiceClient([frontend.address], seed=seed)
        await client.connect()
        if shape.hydrate:
            await asyncio.gather(*(client.resume(tenant_id(i))
                                   for i in range(shape.tenants)))
    except BaseException:
        frontend.stop()
        raise
    return frontend, client, time.monotonic() - t0


async def _timed_setups(shape: FleetShape, seed: int, work: Path,
                        store0: Path, ks: range) -> List[float]:
    """Set-ups that only time themselves: each frontend is stopped and
    its store copy removed."""
    setup_s = []
    for k in ks:
        frontend, client, seconds = await _cold_start(shape, seed, work,
                                                      store0, k)
        setup_s.append(seconds)
        await client.aclose()
        frontend.stop()
        shutil.rmtree(frontend.store)
    return setup_s


async def _measure(shape: FleetShape, tenants: Tenants, seed: int,
                   seconds: float, work: Path, store0: Path,
                   trace: bool) -> Dict[str, object]:
    before, after = split_setups(shape.setups)
    setup_s = await _timed_setups(shape, seed, work, store0,
                                  range(before - 1))
    frontend, client, seconds_k = await _cold_start(
        shape, seed, work, store0, before - 1,
        trace_out=work / "frontend-trace.json" if trace else None)
    setup_s.append(seconds_k)
    client_tracer = None
    if trace:
        client_tracer = Tracer().install(CLIENT_LAYERS)
        client_tracer.install_client_marks()
    rng = random.Random(seed)
    load = Load(shape, tenants, client,
                samples=tuple(sorted(rng.sample(range(shape.tenants),
                                                REPLAY_SAMPLE))))
    load.attempted = shape.tenants if shape.hydrate else 0
    pid = frontend.proc.pid
    open_seconds = seconds * OPEN_SHARE if shape.rate else 0.0
    try:
        try:
            start = time.monotonic() + 0.05
            cpu0, bytes0 = proc_cpu_seconds(pid), dir_bytes(frontend.store)
            if open_seconds:
                await load.open_loop(start, open_seconds)
                open_end = time.monotonic()
                cpu1 = proc_cpu_seconds(pid)
                bytes1 = dir_bytes(frontend.store)
            closed = await load.closed_loop(
                shape.steps(seed),
                round(shape.closed_rate * (seconds - open_seconds)))
            if not open_seconds:
                cpu1 = proc_cpu_seconds(pid)
                bytes1 = dir_bytes(frontend.store)
            status = await client.status()
            rss_mb = proc_hwm_mb(pid)
            counters = {"retries": client.retries,
                        "redirects": client.redirects}
        finally:
            if client_tracer is not None:
                client_tracer.uninstall()
            await client.aclose()
    finally:
        rc, log = frontend.stop()
    setup_s += await _timed_setups(shape, seed, work, store0,
                                   range(before, before + after))

    measured_phase = "open" if open_seconds else "closed"
    measured = sorted((p for p in load.pairs if p.phase == measured_phase),
                      key=lambda p: p.due)
    closed_pairs = [p for p in load.pairs if p.phase == "closed"]
    good = [p for p in closed_pairs if p.suggest_ms <= LATENCY_LIMIT_MS]
    windows = TAIL_WINDOWS if open_seconds else 1
    sd = windowed([p.suggest_ms for p in measured], windows)
    od = windowed([p.observe_ms for p in measured], windows)
    metrics = {
        "setup_s": median(setup_s),
        "suggest_ms_iqm": sd["iqm"],
        "cpu_ms_per_interval": (cpu1 - cpu0) / len(measured) * 1e3,
        "max_rate_per_s": len(good) / (closed[1] - closed[0]),
        "rss_mb": rss_mb,
        "store_bytes_per_interval": (bytes1 - bytes0) / len(measured),
    }

    latency = {"client.suggest_ms_p50": sd["p50"],
               "client.suggest_ms_tail": sd["tail"],
               "client.observe_ms_p50": od["p50"],
               "client.observe_ms_tail": od["tail"]}

    checks = Checks()
    stats = status["stats"]
    rejected = stats["rejected"]
    checks.add("zero_failed_calls", not load.failures and not rejected,
               "; ".join(load.failures[:3]) or f"rejected={rejected}")
    # the status request itself is accepted but not yet answered
    accounted = stats["accepted"] == (stats["completed"] + stats["rejected"]
                                      + stats["unanswered"] + 1)
    checks.add("accounting", accounted and stats["unanswered"] == 0,
               json.dumps(stats))
    checks.add("clean_shutdown", rc == 0 and "shutdown clean:" in log,
               f"rc={rc}")
    checks.add("configs_in_bounds", load.configs_ok)
    late = [(p.send - p.due) * 1e3 for p in load.pairs
            if p.phase == "open" and p.idle_at_due]
    late_p99 = percentile(late, 99) if late else 0.0
    if open_seconds:
        checks.add("generator_on_time", late_p99 <= MAX_GENERATOR_LATE_MS,
                   f"late p99 {late_p99:.2f} ms")

    details = {
        "setup_s": setup_s, "measured_phase": measured_phase,
        "measured_pairs": len(measured),
        "closed_loop_pairs": len(closed_pairs),
        "good_closed_loop_pairs": len(good),
        "offered_rate": shape.rate,
        "tail_level": sd["tail_level"], "latency_ms": latency,
        "generator_late_ms_p99": late_p99,
        "create_ms": load.creates_ms, "server_stats": stats,
        "client": counters, "quality": dict(load.quality),
        "replay_tenants": [tenant_id(i) for i in load.samples],
    }
    if open_seconds:
        details["achieved_rate"] = len(measured) / (open_end - start)
    result = {"metrics": metrics, "checks": checks, "details": details,
              "attempted": load.attempted,
              "failed": len(load.failures) + rejected,
              "sampled": load.sampled}
    if trace:
        server = json.loads((work / "frontend-trace.json").read_text())
        result["layers"] = _fleet_layers(
            server, client_tracer, load, (int(start * 1e9),
                                          int(closed[1] * 1e9)),
            measured_phase, latency, stats, counters)
    return result


def _replay_check(store0: Path, work: Path, sampled: Dict[int, list],
                  checks: Checks) -> None:
    """Replay the sampled tenants' exact inputs and feedback through an
    in-process TuningService over the same populated store; every
    suggestion must equal the one that came over the wire."""
    from repro.service.service import TuningService
    from repro.service.transport import protocol
    root = work / "replay-store"
    shutil.copytree(store0, root)
    service = TuningService(root, durability="delta")
    mismatches = compared = 0
    for i, records in sorted(sampled.items()):
        for inp, wire_config, feedback in records:
            config = protocol.plain(service.suggest(tenant_id(i), inp))
            compared += 1
            mismatches += config != wire_config
            service.observe(tenant_id(i), feedback)
    checks.add("wire_matches_in_process", compared > 0 and not mismatches,
               f"{mismatches}/{compared} suggestions differ")


def run_fleet(name: str, seed: int, seconds: float, work: Path,
              trace: bool = False,
              shape: Optional[FleetShape] = None) -> Dict[str, object]:
    """Run one fleet workload; returns metrics, checks and details."""
    shape = shape or FLEETS[name]
    tenants = Tenants(shape.tenants + shape.creates, seed)
    store0 = work / "populated"
    t0 = time.monotonic()
    populate(store0, shape, tenants)
    populate_s = time.monotonic() - t0
    warm_history = list(tenants.history)
    result = asyncio.run(_measure(shape, tenants, seed, seconds, work,
                                  store0, trace))
    # the replay restarts the sampled tenants from their populated state
    _replay_check(store0, work, result.pop("sampled"), result["checks"])
    result["details"].update({"populate_s": populate_s,
                              "warm_history": warm_history})
    return result


def _fleet_layers(server: Dict[str, object], client_tracer: Tracer,
                  load: Load, window: Tuple[int, int], phase: str,
                  latency: Dict[str, float], stats: Dict[str, int],
                  counters: Dict[str, int]) -> Dict[str, object]:
    """Per-layer breakdown: the frontend's spans decompose its busy time
    (the union of its requests' accept-to-answer lifetimes)."""
    spans = server["spans"]
    marks: Dict[str, Dict[object, tuple]] = {"accept": {}, "take": {},
                                             "done": {}}
    for kind, rid, t_ns, tenant, op in server["marks"]:
        if kind in marks and rid is not None:
            marks[kind][rid] = (t_ns, tenant, op)
    lo, hi = window
    busy = merge((t_ns, marks["done"][rid][0])
                 for rid, (t_ns, tenant, _op) in marks["accept"].items()
                 if tenant and rid in marks["done"] and lo <= t_ns < hi)
    server_totals = layer_totals(spans, [window])
    totals = dict(server_totals)
    client_totals = layer_totals(client_tracer.spans, [window])
    if "dbms.interval" in client_totals:
        totals["dbms.interval"] = client_totals["dbms.interval"]

    sends = [m for m in client_tracer.marks if m[0] == "send"]
    waits, lifetimes = [], []
    for _kind, rid, t_send, _tenant, _op in sends:
        if rid in marks["take"] and rid in marks["done"]:
            waits.append(marks["take"][rid][0] - t_send)
            lifetimes.append(marks["done"][rid][0] - t_send)
    rounds = server_totals.get("service.round", {}).get("calls", 0)
    takes = sum(1 for t_ns, _tenant, _op in marks["take"].values()
                if lo <= t_ns < hi)
    calls = sum(server_totals.get(n, {}).get("calls", 0)
                for n in ("service.call", "service.create"))
    loads = server_totals.get("store.load", {}).get("calls", 0)
    extra = {
        "service.round_width_mean": takes / rounds if rounds else 0.0,
        "service.lru_hit_rate": 1.0 - loads / calls if calls else 1.0,
        "transport.queue_wait_share":
            sum(waits) / sum(lifetimes) if lifetimes else 0.0,
        "transport.rejected": stats["rejected"],
        "client.retries": counters["retries"],
        "client.redirects": counters["redirects"],
        **latency,
    }
    analysis = _tail_analysis(spans, marks, sends, load, phase,
                              latency["client.suggest_ms_tail"])
    return layer_metrics(
        totals, pairs=len(load.pairs), busy_ns=sum(b - a for a, b in busy),
        covered_ns=coverage(spans, busy),
        overhead_ns=(sum(v["calls"] for v in server_totals.values())
                     * server["span_cost_ns"]),
        quality=load.quality, share_totals=server_totals, extra=extra,
        analysis=analysis)


def _tail_analysis(spans, marks, sends, load: Load, phase: str,
                   suggest_tail: float) -> Dict[str, object]:
    """Where the measured phase's tail suggests spent their time.

    Each suggest is joined to its request id (a tenant's suggests are
    sent in order), then split into: waiting before send (the tenant's
    previous interval still running), send to dispatcher round start
    (queue wait), round start to answer, and answer to client reply.
    ``heavy_share`` is the part of send-to-answer during which the
    frontend ran one of ``HEAVY_SPANS`` for any tenant.
    """
    by_tenant: Dict[str, List[int]] = {}
    for _kind, rid, _t, tenant, op in sends:
        if op == "suggest":
            by_tenant.setdefault(tenant, []).append(rid)
    occupied = {name: Occupancy(spans, [name]) for name in HEAVY_SPANS}
    any_heavy = Occupancy(spans, HEAVY_SPANS)
    seen: Dict[int, int] = {}
    rows = []
    for p in load.pairs:
        k = seen.get(p.tenant, 0)
        seen[p.tenant] = k + 1
        rids = by_tenant.get(tenant_id(p.tenant), [])
        if p.phase != phase or k >= len(rids):
            continue
        rid = rids[k]
        if rid not in marks["take"] or rid not in marks["done"]:
            continue
        send = int(p.send * 1e9)
        take, done = marks["take"][rid][0], marks["done"][rid][0]
        rows.append({"latency_ms": p.suggest_ms,
                     "before_send_ms": (p.send - p.due) * 1e3,
                     "queue_ms": (take - send) / 1e6,
                     "round_ms": (done - take) / 1e6,
                     "reply_ms": (p.suggest_reply * 1e9 - done) / 1e6,
                     "heavy_ms": any_heavy.within(send, done) / 1e6,
                     "heavy_by_span_ms": {
                         name: occ.within(send, done) / 1e6
                         for name, occ in occupied.items()}})

    def summarize(picked: List[dict]) -> Dict[str, object]:
        if not picked:
            return {"n": 0}
        total = sum(r["latency_ms"] for r in picked)
        out: Dict[str, object] = {"n": len(picked),
                                  "mean_latency_ms": total / len(picked)}
        for key in ("before_send_ms", "queue_ms", "round_ms", "reply_ms",
                    "heavy_ms"):
            out[key.replace("_ms", "_share")] = \
                sum(r[key] for r in picked) / total
        out["heavy_by_span_share"] = {
            name: sum(r["heavy_by_span_ms"][name] for r in picked) / total
            for name in HEAVY_SPANS}
        return out

    tail = [r for r in rows if r["latency_ms"] >= suggest_tail]
    return {"suggest_all": summarize(rows), "suggest_tail": summarize(tail)}
