"""Figure 8 + Table A1: per-iteration computation time of each tuner and
OnlineTune's per-module time breakdown on the JOB workload.

Wall-clock timings are machine- and load-dependent, so they are printed
to stdout only; the persisted ``benchmarks/output`` artifact carries the
deterministic (seeded) content — tuner roster, iteration counts, and
OnlineTune's per-module trace statistics — so reruns are byte-stable and
stop producing spurious diffs.
"""

import numpy as np
import pytest

from repro.harness import build_session, make_tuner
from repro.workloads import JOBWorkload

from _common import emit, quick_iters

TUNERS = ["OnlineTune", "BO", "DDPG", "ResTune", "QTune", "MysqlTuner"]

#: the Table A1 per-module breakdown keys, in workflow order
MODULES = ("featurization", "model_selection", "subspace", "safety",
           "selection")


def _run():
    iters = quick_iters(150, 30)
    stable = [f"fig8 computation time on JOB, {iters} iters",
              "(wall-clock ms printed to stdout; this artifact keeps only "
              "seeded, machine-independent stats)",
              f"tuners: {' '.join(TUNERS)}"]
    timing = [f"fig8 wall-clock timings, {iters} iters"]
    for name in TUNERS:
        tuner = make_tuner(name, tuner_space(), seed=0)
        result = build_session(tuner, JOBWorkload(seed=0), space=tuner.space,
                               n_iterations=iters, seed=0).run()
        times = [r.suggest_seconds for r in result.records]
        timing.append(f"{name:<12} mean {np.mean(times) * 1000:8.1f} ms  "
                      f"p95 {np.percentile(times, 95) * 1000:8.1f} ms  "
                      f"last {times[-1] * 1000:8.1f} ms")
        if name == "OnlineTune":
            traces = tuner.traces
            assert traces, "OnlineTune recorded no iteration traces"
            # the module roster is derived from what the tuner actually
            # recorded, so a renamed/dropped overhead key changes the
            # artifact (and fails the assertions below) instead of
            # passing silently
            observed = sorted({key for t in traces for key in t.overhead})
            stable.append("tableA1 OnlineTune per-module breakdown "
                          f"(modules observed: {', '.join(observed)}; "
                          "mean seconds on stdout)")
            line_share = np.mean([t.subspace_kind == "line" for t in traces])
            stable.append(f"  iterations traced    {len(traces):d}")
            stable.append(f"  mean safety-set size "
                          f"{np.mean([t.safety_set_size for t in traces]):.2f}")
            stable.append(f"  line-region share    {line_share:.2f}")
            stable.append(f"  final subspace radius "
                          f"{traces[-1].subspace_radius:.4f}")
            timing.append("tableA1 OnlineTune per-module mean seconds:")
            for key in MODULES:
                vals = [t.overhead.get(key, 0.0) for t in traces]
                timing.append(f"  {key:<16} {np.mean(vals):.4f}s")
    return "\n".join(stable), "\n".join(timing)


@pytest.mark.benchmark(group="fig08")
def test_fig08_overhead(benchmark):
    stable, timing = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(timing)
    emit("fig08_overhead_tableA1", stable)
    # the observed-module roster comes from the recorded traces, so a
    # module disappearing from the suggest path fails here
    observed_line = next(l for l in stable.splitlines()
                         if "modules observed:" in l)
    for module in MODULES:
        assert module in observed_line, f"module {module!r} left no trace"


def tuner_space():
    from repro.knobs import mysql57_space
    return mysql57_space()
