"""Strided shards of a figure sweep merge back exactly.

:class:`~repro.harness.ParallelRunner` rebuilds every session from its
:class:`~repro.harness.SessionSpec` with spec-derived seeding and shares
no state between sessions, so a sweep split by stride (shard i runs
``specs[i::k]``, on any host) and put back together by position equals
the unsharded run, for any shard count.  Also covers the shard
coordinates a wire frontend accepts.
"""

from __future__ import annotations

import pytest

from repro.harness import ParallelRunner, SessionSpec
from repro.service import TuningService
from repro.service.transport import TuningServer

ITERS = 12
TUNERS = ("OnlineTune", "BO", "DDPG", "ResTune", "QTune", "MysqlTuner")


def _fig06_specs(iters: int = ITERS):
    """The fig06 grid shape (six tuners on the OLTP/OLAP cycle)."""
    period = max(iters // 4, 6)
    return [SessionSpec(tuner=name, workload="oltp_olap_cycle", seed=0,
                        n_iterations=iters, space="case_study",
                        workload_kwargs=(("growth_iters", iters),
                                         ("period", period)))
            for name in TUNERS]


def _assert_identical(a, b):
    assert a.tuner_name == b.tuner_name
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.performance == rb.performance
        assert ra.default_performance == rb.default_performance
        assert ra.throughput == rb.throughput
        assert ra.latency_p99 == rb.latency_p99
        assert ra.exec_seconds == rb.exec_seconds
        assert ra.failed == rb.failed
        assert ra.unsafe == rb.unsafe


@pytest.fixture(scope="module")
def unsharded():
    return ParallelRunner(max_workers=1).run(_fig06_specs())


class TestShardMerge:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 6])
    def test_union_of_shards_equals_unsharded(self, shard_count, unsharded):
        specs = _fig06_specs()
        runner = ParallelRunner(max_workers=1)
        merged = [None] * len(specs)
        for index in range(shard_count):
            merged[index::shard_count] = runner.run(
                specs[index::shard_count])
        assert len(merged) == len(unsharded)
        for a, b in zip(merged, unsharded):
            _assert_identical(a, b)

    def test_invalid_shard_arguments(self, tmp_path):
        service = TuningService(tmp_path)
        for index, count in ((3, 3), (-1, 3), (0, 0)):
            with pytest.raises(ValueError, match="shard_index"):
                TuningServer(service, shard_index=index, shard_count=count)
