"""E1 — Theorem 1 on a controlled sparse edge-MEG.

Regenerates the sweep behind the paper's headline bound
``O(M (1/(n alpha) + beta)^2 log^2 n)``: measured flooding times across
``n`` must stay below the bound and grow no faster than it.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table
from repro.util.mathutils import loglog_slope


def test_e1_theorem1_bound_envelope(benchmark):
    report = run_once(benchmark, run_experiment, "E1", "small", 0)
    print()
    print(format_table(report))

    sizes = report.column_values("n")
    measured = report.column_values("measured_mean")
    bounds = report.column_values("theorem1_bound")

    # The bound (with constant 1) dominates every measured point.
    for value, bound in zip(measured, bounds):
        assert value <= bound

    # Shape: the bound grows at least as fast as the measurement in n.
    assert loglog_slope(sizes, bounds) >= loglog_slope(sizes, measured) - 0.2
