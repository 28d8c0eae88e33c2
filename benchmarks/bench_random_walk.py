"""E4 — Random walk mobility on the grid (calibration baseline)."""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table


def test_e4_random_walk_mobility(benchmark):
    report = run_once(benchmark, run_experiment, "E4", "small", 0)
    print()
    print(format_table(report))

    measured = report.column_values("measured_mean")
    lower = report.column_values("lower_bound")

    # Flooding cannot beat the geometric lower bound by more than the slack
    # the (r + v)-per-step argument leaves on a tiny grid.
    for value, bound in zip(measured, lower):
        assert value >= bound / 4.0
    # Larger populations on proportionally larger grids take longer.
    assert measured[-1] >= measured[0]
