"""``repro-service serve`` with the benchmark's layer spans installed.

Usage::

    python -m benchmarks.e2e.traced_serve --trace-out PATH -- [serve args]

Wraps the frontend's layer entry points (see :mod:`.tracing`), runs the
unchanged ``serve`` command, and writes every span and request mark to
``PATH`` when the server exits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .tracing import FRONTEND_LAYERS, Tracer


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="traced_serve")
    parser.add_argument("--trace-out", type=Path, required=True)
    args = parser.parse_args(argv[:split])

    from repro.service.cli import serve_main

    tracer = Tracer().install(FRONTEND_LAYERS)
    tracer.install_server_marks()
    try:
        return serve_main(argv[split + 1:])
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
