"""Served tenants start where the paper starts.

OnlineTune's first recommendation is the instance's current
configuration, the one its safety threshold τ is measured at.
``TuningSession.run`` hands it to the tuner through ``tuner.start``; a
served tenant receives it as ``TenantSpec.initial_config``, which
``create`` applies before the tenant's birth snapshot.  The
load-bearing assertions:

* **Three-way equivalence** — one seeded instance running the DBA
  default configuration (not the knob space's factory defaults) is
  driven by ``TuningSession.run``, by an in-process
  :class:`TuningService` tenant and by the same tenant over the wire.
  All three emit bit-identical suggestions, also after the served
  tenant is resumed from its delta chain partway through — a start
  applied after the birth snapshot would be lost on that replay.
* **Rejection** — a configuration naming an unknown knob, or holding a
  value its knob would clip, raises ``ValueError`` in process and a
  :class:`RemoteCallError` naming ``ValueError`` on the wire, and
  leaves no checkpoint, lease or directory entry behind.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import partial

import pytest

from repro.core import OnlineTune
from repro.dbms import SimulatedMySQL
from repro.harness import TuningSession
from repro.knobs import GIB, case_study_space
from repro.service import TenantSpec, TuningService
from repro.service.transport import RemoteCallError, RemoteFrontend

from service_utils import build_reference_db, drive
from test_transport import ServerThread

SEED = 5
ITERS = 12
RESUME_AT = 6

BAD_CONFIGS = {
    "unknown_knob": {"innodb_buffer_pool_size": 2 * GIB, "no_such_knob": 1},
    "integer_out_of_range": {"innodb_buffer_pool_size": 64 * GIB},
    "enum_not_a_choice": {"innodb_flush_log_at_trx_commit": 3},
}


def build_instance() -> SimulatedMySQL:
    """The seeded instance every path drives: TPC-C on the 5-knob space,
    running the DBA default configuration, with measurement noise."""
    return build_reference_db(SEED)


def spec_for(db: SimulatedMySQL) -> TenantSpec:
    return TenantSpec(space="case_study", seed=SEED,
                      initial_config=db.reference_config)


def drive_served(frontend, tenant: str) -> list:
    """Create the tenant at its instance's configuration, run
    ``RESUME_AT`` intervals, resume it from the store, run the rest."""
    db = build_instance()
    frontend.create(tenant, spec_for(db))
    suggest = partial(frontend.suggest, tenant)
    observe = partial(frontend.observe, tenant)
    configs, history = drive(suggest, observe, db, 0, RESUME_AT)
    frontend.resume(tenant)
    later, _ = drive(suggest, observe, db, RESUME_AT, ITERS, history)
    return configs + later


@contextmanager
def wire_frontend(root):
    """A wire frontend on port 0 and a blocking client connected to it."""
    server = ServerThread(root)
    frontend = RemoteFrontend(*server.address)
    try:
        yield frontend, server.service
    finally:
        frontend.disconnect()
        server.stop()


def assert_nothing_left(service: TuningService, tenant: str) -> None:
    root = service.store.root
    assert service.store.latest_path(tenant) is None
    assert tenant not in service.tenants()
    assert service.leases.holder(tenant) is None
    assert not list((root / "leases").glob(f"{tenant}.*"))
    records = [json.loads(line)
               for path in (root / "directory").glob("owners-*.jsonl")
               for line in path.read_text().splitlines()]
    assert all(record["t"] != tenant for record in records)


class TestThreeWayEquivalence:
    def test_session_inprocess_and_wire_suggest_identically(self, tmp_path):
        db = build_instance()
        assert db.reference_config != db.space.default_config()
        tuner = OnlineTune(case_study_space(), seed=SEED)
        result = TuningSession(tuner, db, n_iterations=ITERS,
                               record_configs=True).run()
        session = [record.config for record in result.records]
        # the paper's first recommendation: the instance's configuration
        assert session[0] == db.reference_config

        inprocess = drive_served(
            TuningService(tmp_path / "inprocess", durability="delta"), "t")
        with wire_frontend(tmp_path / "wire") as (frontend, _service):
            wire = drive_served(frontend, "t")

        assert json.dumps(inprocess) == json.dumps(session)
        assert json.dumps(wire) == json.dumps(session)


class TestRejection:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_in_process(self, tmp_path, case):
        service = TuningService(tmp_path, durability="delta")
        with pytest.raises(ValueError, match="initial_config"):
            service.create("t", TenantSpec(space="case_study",
                                           initial_config=BAD_CONFIGS[case]))
        assert_nothing_left(service, "t")
        # the id is still free: a valid create goes through
        service.create("t", spec_for(build_instance()))

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_on_the_wire(self, tmp_path, case):
        with wire_frontend(tmp_path) as (frontend, service):
            with pytest.raises(RemoteCallError, match="ValueError"):
                frontend.create("t", TenantSpec(
                    space="case_study", initial_config=BAD_CONFIGS[case]))
            assert_nothing_left(service, "t")
            frontend.create("t", spec_for(build_instance()))
