"""Script entry point: ``python3 benchmarks/e2e/run.py [args]``.

Same as ``python -m benchmarks.e2e`` but needs no ``PYTHONPATH``: it puts
the repository root and ``src/`` on the path itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# replace the script directory so its module names shadow nothing
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
