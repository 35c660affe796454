"""Toy-size run of every end-to-end workload (tier-1 smoke test).

Sessions run 30 intervals once; fleets run 4 tenants for 3 seconds
against a real ``serve`` subprocess.  Two workloads run untraced and two
traced, so together they must emit every metric ``BENCHMARK.json``
names, with its unit and a finite value; the traced residual must be
non-negative and the results file must round-trip.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from benchmarks.e2e import compare, fleet, sessions
from benchmarks.e2e.cli import shape_record, write_results
from benchmarks.e2e.common import load_spec, metric_units

TOY_FLEETS = {
    "fleet-steady": dataclasses.replace(
        fleet.FLEETS["fleet-steady"], tenants=4, warm_mod=10, rate=8.0,
        window=4, closed_rate=10.0, setups=1),
    "fleet-churn": dataclasses.replace(
        fleet.FLEETS["fleet-churn"], tenants=4, warm_mod=6, window=1,
        closed_rate=8.0, max_live=2, hot=1, hot_slots=5, creates=1,
        create_every=3, setups=1),
}

# (workload, traced)
RUNS = [("session-tpcc", False), ("session-cycle", True),
        ("fleet-steady", False), ("fleet-churn", True)]


def _run(workload: str, trace: bool, work):
    if workload in sessions.SESSION_WORKLOADS:
        return sessions.run_session(workload, seed=3, seconds=0.0,
                                    work=work, trace=trace, intervals=30,
                                    min_repeats=1, cold_starts=1)
    return fleet.run_fleet(workload, seed=3, seconds=3.0, work=work,
                           trace=trace, shape=TOY_FLEETS[workload])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    spec = load_spec()
    out = []
    for workload, trace in RUNS:
        work = tmp_path_factory.mktemp(workload)
        raw = _run(workload, trace, work)
        out.append(shape_record(workload, 3, 3.0, trace, raw, spec))
    return out


def test_every_run_is_correct(records):
    for record in records:
        failed = [name for name, c in record["checks"].items() if not c["ok"]]
        assert record["correct"], (record["workload"], failed)
        assert record["attempted"] >= 1 and record["failed"] == 0


def test_every_metric_emitted_with_unit_and_finite_value(records):
    spec = load_spec()
    for trace in (False, True):
        units = metric_units(spec, trace)
        for record in (r for r in records if r["trace"] == trace):
            assert set(record["metrics"]) == set(units)
            for name, metric in record["metrics"].items():
                assert metric["unit"] == units[name]
                assert math.isfinite(metric["value"]), (name, metric)


def test_traced_residual_is_non_negative(records):
    for record in (r for r in records if r["trace"]):
        assert 0.0 <= record["metrics"]["residual"]["value"] <= 1.0


def test_results_roundtrip_and_compare(records, tmp_path):
    path = tmp_path / "results.json"
    write_results(path, records)
    assert json.loads(path.read_text())["runs"] == records
    untraced = compare.load_runs(path)
    assert untraced == [r for r in records if not r["trace"]]
    rows = compare.compare(untraced, untraced, load_spec())
    assert rows and all(row["verdict"] == "same" for row in rows)
