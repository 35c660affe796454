"""Shared drivers for the service-layer test suites (not a test module).

The fault-injection, concurrency, and golden-trajectory suites all need
the same deterministic client loop: build a simulated instance, feed the
tuner (or a hosted tenant) one interval at a time, and keep the metrics
stream the client would replay after a crash.  The wire suites also
share one way to start, address and drain a real ``serve`` process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.base import Feedback, SuggestInput
from repro.core import OnlineTune
from repro.dbms import PerformanceModel, SimulatedMySQL
from repro.knobs import case_study_space, dba_default_config
from repro.service import StepCall
from repro.service.cli import _round, _run_interval, _suggest_input
from repro.workloads import TPCCWorkload

REPO_ROOT = Path(__file__).resolve().parents[1]


def build_db(seed: int, workload=None) -> SimulatedMySQL:
    """Simulated instance with *noiseless* measurements.

    The engine draws measurement noise from a sequential RNG, so a
    crashed-and-restarted client would otherwise observe different noise
    than the uninterrupted run and the bit-identity assertions would
    compare different environments rather than the durability layer.
    Noiseless evaluation makes every interval a pure function of
    ``(iteration, config)``.
    """
    space = case_study_space()
    return SimulatedMySQL(space, workload or TPCCWorkload(seed=seed),
                          model=PerformanceModel(noise_std=0.0), seed=seed)


def build_reference_db(seed: int) -> SimulatedMySQL:
    """Seeded TPC-C instance running the DBA default configuration (not
    the knob space's factory defaults), with the harness's 2 % measurement
    noise.  A served tenant starts here with
    ``TenantSpec(initial_config=db.reference_config)``."""
    space = case_study_space()
    return SimulatedMySQL(space, TPCCWorkload(seed=seed),
                          reference_config=dba_default_config(space),
                          model=PerformanceModel(noise_std=0.02), seed=seed)


def build_tuner(seed: int) -> OnlineTune:
    return OnlineTune(case_study_space(), seed=seed)


def step(suggest: Callable, observe: Callable, db, t: int,
         last_metrics: Dict[str, float]):
    """One suggest/observe interval; returns (config, metrics)."""
    profile = db.profile(t)
    snapshot = db.observe_snapshot(t)
    tau = db.default_performance(t)
    inp = SuggestInput(iteration=t, snapshot=snapshot, metrics=last_metrics,
                       default_performance=tau, is_olap=profile.is_olap)
    config = suggest(inp)
    result = db.run_interval(t, config)
    perf = result.objective(profile.is_olap)
    observe(Feedback(iteration=t, config=config, performance=perf,
                     metrics=result.metrics, failed=result.failed,
                     default_performance=tau))
    return config, result.metrics


def drive(suggest: Callable, observe: Callable, db, start: int, stop: int,
          metrics_history: Optional[List[Dict[str, float]]] = None
          ) -> Tuple[list, List[Dict[str, float]]]:
    """Drive [start, stop) intervals; returns (configs, metrics_history).

    ``metrics_history[t]`` is the metrics dict the client fed at interval
    ``t`` — a crashed-and-restarted client resumes from position ``n`` by
    passing the history back and continuing at ``start=n``.
    """
    if metrics_history is None:
        metrics_history = [{}]
    assert len(metrics_history) > start, "history too short to resume here"
    configs = []
    for t in range(start, stop):
        config, metrics = step(suggest, observe, db, t, metrics_history[t])
        configs.append(config)
        if len(metrics_history) == t + 1:
            metrics_history.append(metrics)
        else:
            metrics_history[t + 1] = metrics
    return configs, metrics_history


def drive_tuner(tuner: OnlineTune, db, start: int, stop: int,
                metrics_history=None):
    return drive(tuner.suggest, tuner.observe, db, start, stop,
                 metrics_history)


def drive_service(service, tenant: str, db, start: int, stop: int,
                  metrics_history=None):
    return drive(lambda inp: service.suggest(tenant, inp),
                 lambda fb: service.observe(tenant, fb),
                 db, start, stop, metrics_history)


def step_together(service, instances: Dict[str, SimulatedMySQL],
                  n_intervals: int) -> Dict[str, List[tuple]]:
    """Step created tenants through intervals ``[0, n_intervals)`` as the
    ``demo`` command does: per interval one ``step_batch`` round of
    suggests, then one of observes.  Returns each tenant's
    ``(config, performance)`` per interval."""
    last: Dict[str, Dict[str, float]] = {tenant: {} for tenant in instances}
    trace: Dict[str, List[tuple]] = {tenant: [] for tenant in instances}
    for t in range(n_intervals):
        inputs = {tenant: _suggest_input(db, t, last[tenant])
                  for tenant, db in instances.items()}
        configs = _round(service, [StepCall(tenant, "suggest", (inp,))
                                   for tenant, inp in inputs.items()])
        observes = []
        for (tenant, inp), config in zip(inputs.items(), configs):
            feedback, _ = _run_interval(instances[tenant], inp, config)
            observes.append(StepCall(tenant, "observe", (feedback,)))
            last[tenant] = feedback.metrics
            trace[tenant].append((config, feedback.performance))
        _round(service, observes)
    return trace


def spawn_serve(store_root: Path, *args: str) -> subprocess.Popen:
    """Start ``repro-service serve`` on an ephemeral port over
    ``store_root``, with ``args`` as extra CLI flags; its stdout and
    stderr both go to ``proc.stdout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.service.cli", "serve",
         "--port", "0", "--store-root", str(store_root), *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def read_ready(proc: subprocess.Popen) -> Tuple[str, int, str]:
    """``(host, port, owner)`` from the process's ``READY`` line."""
    for _ in range(200):
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("READY "):
            _, host, port, owner = line.split()
            return host, int(port), owner
    raise AssertionError("serve never printed READY")


def stop_serve(*procs: subprocess.Popen) -> List[str]:
    """SIGINT every process still running, wait for each to drain (a
    SIGKILLed one is only reaped) and return the rest of what each
    printed."""
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
    outputs = []
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        outputs.append(out or "")
    return outputs
