"""``repro-service``: the service layer's command-line entry point.

Two subcommands, one of which is required::

    PYTHONPATH=src python -m repro.service.cli demo  --tenants 8 --iterations 20
    PYTHONPATH=src python -m repro.service.cli serve --host 127.0.0.1 --port 7411 \
        --store-root /var/lib/repro --max-inflight 1024

``demo`` runs the end-to-end showcase on simulated instances at a DBA
default configuration; every tenant is created at its instance's
configuration, where its safety threshold is measured.  It (1) steps N
tenants together in coalesced ``step_batch`` rounds (per interval, one
suggest round, then one observe round) and closes each into the
knowledge base, (2) drives one interactive tenant through the
suggest/observe API, checkpoints it mid-session, "crashes" it, and
proves the resumed session emits the identical next suggestion, and
(3) warm-starts a brand-new tenant from its nearest indexed neighbors.

``serve`` starts an asyncio wire frontend
(:class:`~repro.service.transport.server.TuningServer`) over a
:class:`~repro.service.service.TuningService` and runs until
SIGINT/SIGTERM.  On startup it prints a machine-readable readiness
line — ``READY <host> <port> <owner>`` — so harnesses can bind
``--port 0`` and parse the ephemeral port.  Shutdown drains every
queued request, releases every tenant lease, prints the serving stats,
and exits non-zero if any accepted request went unanswered.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..baselines.base import Feedback, SuggestInput
from ..harness.runner import UNSAFE_TOLERANCE
from .service import StepCall, TenantSpec, TuningService

WORKLOAD_CYCLE = ("tpcc", "twitter", "ycsb", "realworld")


def _build_db(seed: int, workload: str = "tpcc"):
    """A simulated 40-knob instance running the DBA default configuration."""
    from ..dbms import PerformanceModel, SimulatedMySQL
    from ..harness.experiments import WORKLOAD_FACTORIES
    from ..knobs import dba_default_config, mysql57_space
    space = mysql57_space()
    return SimulatedMySQL(space, WORKLOAD_FACTORIES[workload](seed=seed),
                          reference_config=dba_default_config(space),
                          model=PerformanceModel(noise_std=0.02), seed=seed)


def _suggest_input(db, t: int, last_metrics: Dict[str, float]) -> SuggestInput:
    return SuggestInput(iteration=t, snapshot=db.observe_snapshot(t),
                        metrics=last_metrics,
                        default_performance=db.default_performance(t),
                        is_olap=db.profile(t).is_olap)


def _run_interval(db, inp: SuggestInput, config) -> Tuple[Feedback, bool]:
    """Run one interval on the instance: its feedback, and whether it was
    unsafe (failed, or more than the harness tolerance below τ)."""
    result = db.run_interval(inp.iteration, config)
    perf = result.objective(inp.is_olap)
    tau = inp.default_performance
    unsafe = result.failed or perf < tau - UNSAFE_TOLERANCE * abs(tau)
    return Feedback(iteration=inp.iteration, config=config, performance=perf,
                    metrics=result.metrics, failed=result.failed,
                    default_performance=tau), unsafe


def _interactive_step(service: TuningService, tenant: str, db, t: int,
                      last_metrics: Dict[str, float]) -> Tuple[Feedback, bool]:
    """One suggest/observe interval against a simulated instance."""
    inp = _suggest_input(db, t, last_metrics)
    feedback, unsafe = _run_interval(db, inp, service.suggest(tenant, inp))
    service.observe(tenant, feedback)
    return feedback, unsafe


def _round(service: TuningService, calls: List[StepCall]) -> list:
    """One coalesced ``step_batch`` round; the first failed call raises."""
    outcomes, _ = service.step_batch(calls)
    for outcome in outcomes:
        if not outcome.ok:
            raise outcome.error
    return [outcome.value for outcome in outcomes]


def _fresh_tenant_id(service: TuningService, base: str) -> str:
    """First unused ``base``/``base-N`` id, so reruns against a kept
    ``--root`` provision new tenants instead of crashing on create()."""
    existing = set(service.tenants())
    if base not in existing:
        return base
    n = 2
    while f"{base}-{n}" in existing:
        n += 1
    return f"{base}-{n}"


def serve_main(argv=None) -> int:
    """``repro-service serve``: run one wire frontend until signalled."""
    parser = argparse.ArgumentParser(
        prog="repro-service serve",
        description="Serve a TuningService over asyncio TCP "
                    "(length-prefixed JSON protocol; see "
                    "repro.service.transport.protocol).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7411,
                        help="bind port; 0 picks an ephemeral port "
                             "(printed on the READY line)")
    parser.add_argument("--store-root", type=Path, default=None,
                        help="service state directory (default: temp dir, "
                             "deleted on exit)")
    parser.add_argument("--max-inflight", type=int, default=1024,
                        help="global bound on queued requests; beyond it "
                             "requests are shed with RETRY_AFTER")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="per-tenant pending-request bound")
    parser.add_argument("--max-live", type=int, default=128,
                        help="hydrated-session LRU capacity")
    parser.add_argument("--durability", choices=("snapshot", "delta"),
                        default="delta",
                        help="full snapshots only, or per-interval delta "
                             "segments with periodic compaction")
    parser.add_argument("--retry-after", type=float, default=0.05,
                        help="overload hint (seconds) in RETRY_AFTER "
                             "responses")
    parser.add_argument("--shard-index", type=int, default=0,
                        help="this frontend's slice of the tenant "
                             "namespace in an N-frontend fleet")
    parser.add_argument("--shard-count", type=int, default=1,
                        help="total frontends sharing the store (janitor "
                             "sweeps are restricted to this shard)")
    parser.add_argument("--janitor-interval", type=float, default=0.0,
                        help="run a background janitor (compaction + "
                             "pruning) every N seconds on this frontend's "
                             "shard; 0 disables it (default)")
    parser.add_argument("--lease-ttl", type=float, default=None,
                        help="per-tenant lease TTL in seconds (default: "
                             "the library default, 30); short TTLs make "
                             "crashed-frontend takeover fast — the "
                             "takeover tests use 1.5")
    args = parser.parse_args(argv)
    if not 0 <= args.shard_index < args.shard_count:
        # the janitor would wrap onto another frontend's slice and leave
        # this one's unswept
        parser.error("--shard-index must be in [0, --shard-count)")

    import asyncio
    import logging
    import signal

    # takeover events are INFO logs from repro.service.service, one
    # ``lease takeover: tenant=`` line per orphan a frontend adopts
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stdout)

    from .janitor import Janitor
    from .service import TuningService
    from .transport.server import TuningServer

    ephemeral = args.store_root is None
    tmp = None
    if ephemeral:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        args.store_root = Path(tmp.name)

    from .lease import DEFAULT_TTL
    lease_ttl = args.lease_ttl if args.lease_ttl is not None else DEFAULT_TTL

    janitor: Optional[Janitor] = None
    if args.janitor_interval > 0:
        janitor = Janitor(args.store_root, interval=args.janitor_interval,
                          lease_ttl=lease_ttl,
                          shard_index=args.shard_index,
                          shard_count=args.shard_count)

    service_counters: Dict[str, int] = {}

    async def run() -> Dict[str, int]:
        service = TuningService(args.store_root,
                                max_live_sessions=args.max_live,
                                durability=args.durability,
                                lease_ttl=lease_ttl)
        server = TuningServer(service, host=args.host, port=args.port,
                              queue_depth=args.queue_depth,
                              max_inflight=args.max_inflight,
                              retry_after=args.retry_after,
                              shard_index=args.shard_index,
                              shard_count=args.shard_count)
        await server.start()
        host, port = server.address
        # machine-readable readiness marker: harnesses bind --port 0 and
        # parse the ephemeral port + owner identity from this line
        print(f"READY {host} {port} {service.leases.owner}", flush=True)
        print(f"store root {args.store_root}"
              f"{' (temporary)' if ephemeral else ''}; "
              f"shard {server.shard_index}/{server.shard_count}, "
              f"queue depth {server.queue_depth}/tenant, "
              f"max inflight {server.max_inflight}", flush=True)
        if janitor is not None:
            janitor.start()
            print(f"janitor sweeping shard {janitor.shard_index}/"
                  f"{janitor.shard_count} every {janitor.interval:g}s "
                  f"as {janitor.leases.owner}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("draining queues ...", flush=True)
        if janitor is not None:
            janitor.stop()
        await server.stop()
        service.shutdown()
        service_counters.update(service.counters)
        return server.stats()

    try:
        stats = asyncio.run(run())
    finally:
        if tmp is not None:
            tmp.cleanup()
    served = stats["completed"] + stats["rejected"]
    unaccounted = stats["accepted"] - served - stats["unanswered"]
    print(f"shutdown clean: accepted={stats['accepted']} "
          f"completed={stats['completed']} rejected={stats['rejected']} "
          f"unanswered={stats['unanswered']} "
          f"aborted_connections={stats['aborted_connections']} "
          f"rounds={stats['rounds']} max_round={stats['max_round']} "
          f"fused_rows={stats['fused_rows']} "
          f"takeovers={service_counters['takeovers']} "
          f"prehydrate_hits={service_counters['prehydrate_hits']} "
          f"prehydrate_errors={service_counters['prehydrate_errors']} "
          f"released={service_counters['released']} "
          f"release_errors={service_counters['release_errors']}",
          flush=True)
    if janitor is not None:
        # cross_shard counts tenants this janitor touched outside its
        # shard; N sharded janitors must keep it at 0
        print(f"janitor clean: sweeps={janitor.sweeps} "
              f"compacted={janitor.total_compacted} "
              f"pruned={janitor.total_pruned} "
              f"out_of_shard_skips={janitor.total_skipped_out_of_shard} "
              f"cross_shard={janitor.total_cross_shard} "
              f"republished={janitor.total_republished} "
              f"failed_sweeps={janitor.total_failed_sweeps}", flush=True)
    if unaccounted:
        print(f"ERROR: {unaccounted} request(s) dropped without a response",
              file=sys.stderr, flush=True)
        return 1
    return 0


def demo_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service demo", description=__doc__)
    parser.add_argument("--tenants", type=int, default=8,
                        help="tenants stepped together in step 1")
    parser.add_argument("--iterations", type=int, default=20,
                        help="tuning intervals per step-1 tenant")
    parser.add_argument("--root", type=Path, default=None,
                        help="service state directory (default: temp dir)")
    parser.add_argument("--max-live", type=int, default=16,
                        help="hydrated-session LRU capacity; below "
                             "--tenants, every step-1 round evicts and "
                             "rehydrates every tenant")
    parser.add_argument("--durability", choices=("snapshot", "delta"),
                        default="delta",
                        help="full snapshots only, or per-interval delta "
                             "segments with periodic compaction")
    args = parser.parse_args(argv)

    ephemeral = args.root is None
    if ephemeral:
        tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
        args.root = Path(tmp.name)
    service = TuningService(args.root, max_live_sessions=args.max_live,
                            durability=args.durability)
    print(f"service owner {service.leases.owner} "
          f"(per-tenant leases under {args.root}/leases)")

    # 1. coalesced stepping: per interval one suggest round, then one
    #    observe round, the way the wire frontend serves its queues
    instances = {}
    for i in range(args.tenants):
        tenant = _fresh_tenant_id(service, f"tenant-{i:02d}")
        workload = WORKLOAD_CYCLE[i % len(WORKLOAD_CYCLE)]
        db = _build_db(seed=i, workload=workload)
        service.create(tenant, TenantSpec(
            seed=i, initial_config=db.reference_config))
        instances[tenant] = (workload, db)
    print(f"[1/3] stepping {len(instances)} tenants together "
          f"({args.iterations} intervals each) ...")
    last = {tenant: {} for tenant in instances}
    cum_improv = dict.fromkeys(instances, 0.0)
    n_unsafe = dict.fromkeys(instances, 0)
    n_failed = dict.fromkeys(instances, 0)
    for t in range(args.iterations):
        inputs = {tenant: _suggest_input(db, t, last[tenant])
                  for tenant, (_, db) in instances.items()}
        configs = _round(service, [StepCall(tenant, "suggest", (inp,))
                                   for tenant, inp in inputs.items()])
        observes = []
        for (tenant, inp), config in zip(inputs.items(), configs):
            feedback, unsafe = _run_interval(instances[tenant][1], inp,
                                             config)
            last[tenant] = feedback.metrics
            cum_improv[tenant] += (feedback.performance
                                   - feedback.default_performance)
            n_unsafe[tenant] += unsafe
            n_failed[tenant] += feedback.failed
            observes.append(StepCall(tenant, "observe", (feedback,)))
        _round(service, observes)
    for tenant, (workload, _) in instances.items():
        print(f"  {tenant}  workload={workload:<9} "
              f"cum_improv={cum_improv[tenant]:+10.4g}  "
              f"#unsafe={n_unsafe[tenant]}  #failure={n_failed[tenant]}")
        service.close(tenant, register_knowledge=True)
    print(f"  knowledge base now indexes {len(service.knowledge)} sessions")

    # 2. interactive tenant: checkpoint mid-session, crash, resume
    print("[2/3] interactive tenant with mid-session crash/recovery ...")
    tenant = _fresh_tenant_id(service, "interactive")
    db = _build_db(seed=99)
    service.create(tenant, TenantSpec(seed=99,
                                      initial_config=db.reference_config))
    last_metrics: Dict[str, float] = {}
    unsafe_count = 0
    for t in range(8):
        feedback, unsafe = _interactive_step(service, tenant, db, t,
                                             last_metrics)
        last_metrics = feedback.metrics
        unsafe_count += unsafe
    print(f"  8 intervals: #unsafe={unsafe_count}")
    if args.durability == "delta":
        arts = service.store.artifacts(tenant)
        seg_bytes = sum(p.stat().st_size for _, kind, p in arts
                        if kind == "segment")
        print(f"  delta chain after 8 intervals: "
              f"{len([a for a in arts if a[1] == 'segment'])} segment(s), "
              f"{seg_bytes / 1024:.0f} KiB total")
    ckpt = service.checkpoint(tenant)
    print(f"  checkpointed after 8 intervals -> {ckpt.name} "
          f"({ckpt.stat().st_size / 1024:.0f} KiB)")
    probe = _suggest_input(db, 8, last_metrics)
    survivor = service.suggest(tenant, probe)
    service.resume(tenant)                  # discard, rehydrate from disk
    resumed = service.suggest(tenant, probe)
    match = survivor == resumed
    print(f"  post-resume suggestion identical to uninterrupted: {match}")

    # 3. knowledge transfer: warm-start a new tenant from its neighbors
    print("[3/3] warm-starting a new tenant from the knowledge base ...")
    db = _build_db(seed=123)
    newcomer_id = _fresh_tenant_id(service, "newcomer")
    newcomer = service.create(
        newcomer_id, TenantSpec(seed=123, initial_config=db.reference_config),
        warm_start_neighbors=2, probe_snapshot=db.observe_snapshot(0))
    print(f"  newcomer starts with {len(newcomer.repo)} transferred "
          f"observations (vs 0 cold)")
    feedback, _ = _interactive_step(service, newcomer_id, db, 0, {})
    perf, tau = feedback.performance, feedback.default_performance
    print(f"  first interval: perf={perf:.0f} vs tau={tau:.0f} "
          f"({100 * (perf - tau) / abs(tau):+.1f}%)")
    if ephemeral:
        print("service state was in a temporary directory (deleted on "
              "exit); pass --root DIR to keep it")
    else:
        print(f"service state in {args.root}")
    return 0 if match else 1


def main(argv=None) -> int:
    """Dispatch ``repro-service {serve,demo} [options]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"serve": serve_main, "demo": demo_main}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    print("usage: repro-service {serve,demo} [options]\n"
          "repro-service: error: a subcommand is required "
          "(serve --help and demo --help list their options)",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
