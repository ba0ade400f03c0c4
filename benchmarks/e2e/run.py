"""Script form of the benchmark command (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

Puts this checkout's ``src/`` and the package's parent first on ``sys.path``,
so the program measured is always the one in this tree.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent), str(here.parents[1] / "src")]
    from e2e.cli import main

    raise SystemExit(main())
