"""E5 — Random paths on a grid (Corollary 5, shortest-path instance).

The discussion after Corollary 5 shows that when every pair of points has a
single feasible simple path and the family is δ-regular with δ = polylog(n),
the flooding time is ``O(D polylog n)``; the benchmark checks the measured
time grows roughly linearly with the grid diameter and stays below the
Corollary-5 bound.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table
from repro.util.mathutils import loglog_slope


def test_e5_random_paths_on_grid(benchmark):
    report = run_once(benchmark, run_experiment, "E5", "small", 0)
    print()
    print(format_table(report))

    diameters = report.column_values("diameter")
    measured = report.column_values("measured_mean")
    bounds = report.column_values("corollary5_bound")
    lower = report.column_values("diameter_lower_bound")

    for value, bound in zip(measured, bounds):
        assert value <= bound
    for value, low in zip(measured, lower):
        assert value >= low / 4.0
    # Shape: measured flooding time grows with the diameter (slope positive,
    # well below quadratic).
    slope = loglog_slope(diameters, measured)
    assert 0.2 <= slope <= 2.0
