"""Benchmark of the hienet package: ``python3 perfbench/run.py --help``.

Importing the package puts the checkout's ``src`` first on ``sys.path``, so
the benchmark always measures the source tree it sits in.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
