"""End-to-end benchmark of the OnlineTune reproduction and its tuning service.

Four workloads, each run for a fixed wall-clock budget:

* ``session-tpcc`` / ``session-cycle`` drive the library in-process: one
  OnlineTune session against the simulated MySQL, repeated while the
  budget lasts.
* ``fleet-steady`` / ``fleet-churn`` drive a ``repro-service serve``
  subprocess over TCP from one asyncio client.

``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e/run.py``) runs
them; ``--trace 1`` swaps the end-to-end metrics for a per-layer
breakdown; ``python -m benchmarks.e2e compare A.json B.json`` gives each
(metric, workload) pair a verdict.  ``BENCHMARK.json`` at the repository
root names the workloads and metrics; README.md beside this file
explains them.
"""
