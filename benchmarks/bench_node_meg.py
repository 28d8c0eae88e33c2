"""E2 — Theorem 3 on an explicit node-MEG (co-location connection map)."""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table


def test_e2_node_meg_bound_envelope(benchmark):
    report = run_once(benchmark, run_experiment, "E2", "small", 0)
    print()
    print(format_table(report))

    measured = report.column_values("measured_mean")
    bounds = report.column_values("theorem3_bound")
    etas = report.column_values("eta")

    for value, bound in zip(measured, bounds):
        assert value <= bound
    # The co-location connection over a complete meeting graph is pairwise
    # independent in the stationary regime: eta stays ~1 across the sweep.
    assert all(eta <= 1.5 for eta in etas)
    # Denser populations (larger n, same meeting space) flood faster.
    assert measured[-1] <= measured[0] * 1.5
