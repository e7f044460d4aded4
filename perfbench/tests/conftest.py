"""Make the benchmark's modules and the program importable.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
