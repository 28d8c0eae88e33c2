"""Shared configuration for the engine benchmark.

``bench_engine.py`` checks that the flooding kernels agree and times their
speed-up ratios via pytest-benchmark; the paper's claims are checked in the
tier-1 tests (``tests/test_experiments.py`` and
``tests/test_paper_ablations.py``).  Run with::

    pytest benchmarks/bench_engine.py
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_SRC, _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
