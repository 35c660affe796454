"""Tuning-as-a-service demo: durable, multi-tenant, knowledge-sharing.

Run from the repository root::

    PYTHONPATH=src python examples/service_demo.py

Shows the three service-layer capabilities end to end, every tenant
created at its instance's current configuration:

1. **Multi-tenant tuning** — eight tenants stepped together in
   coalesced ``step_batch`` rounds, the way the wire frontend serves
   them, each persisted to its own checkpoint namespace and closed
   into the knowledge base.
2. **Crash recovery** — an interactive tenant checkpointed mid-session,
   "crashed", resumed from disk, and proven to emit the identical next
   suggestion.
3. **Cross-session knowledge transfer** — a brand-new tenant warm-started
   from its nearest indexed neighbors before its first suggestion.

All heavy lifting lives in :mod:`repro.service.cli` (``repro-service
demo``); this wrapper keeps the example runnable with zero arguments
and passes any options on to the demo.
"""

import sys

from repro.service.cli import main

if __name__ == "__main__":
    sys.exit(main(["demo", *sys.argv[1:]]))
