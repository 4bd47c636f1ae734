"""Measure one workload: the command ``BENCHMARK.json`` names.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload macro --seed 1 --seconds 10 --trace 0

The program is imported from the checkout's ``src/``; without it the
command exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run.py: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    # Replace this script's directory on the path, so the package's
    # own module names cannot shadow anything.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.e2e.harness import main
    sys.exit(main())
