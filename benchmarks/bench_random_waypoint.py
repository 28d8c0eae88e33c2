"""E3 — Random waypoint in the sparse regime (Corollary 4 / Section 4.1).

The paper's first waypoint bound predicts, in the sparse regime
``L ~ sqrt(n)``, ``r = Theta(1)``, ``v = Theta(1)``, a flooding time of
``Õ(sqrt(n) / v_max)`` — almost matching the trivial ``Omega(sqrt(n)/v)``
lower bound.  The benchmark checks both sides: the measured flooding time
scales like ``sqrt(n)`` (log-log slope ~0.5) and stays within a small factor
of the lower bound.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table
from repro.util.mathutils import loglog_slope


def test_e3_waypoint_sparse_regime(benchmark):
    report = run_once(benchmark, run_experiment, "E3", "small", 0)
    print()
    print(format_table(report))

    sizes = report.column_values("n")
    measured = report.column_values("measured_mean")
    bounds = report.column_values("waypoint_bound")
    ratios = report.column_values("ratio_to_lower")

    for value, bound in zip(measured, bounds):
        assert value <= bound
    # Scaling shape: flooding time ~ sqrt(n) up to polylog factors.
    slope = loglog_slope(sizes, measured)
    assert 0.25 <= slope <= 0.85
    # Near-tightness: within a small constant factor of the trivial lower bound.
    assert max(ratios) <= 8.0
