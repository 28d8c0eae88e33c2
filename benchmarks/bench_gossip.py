"""E8 — Randomised gossip protocols reduced to flooding (Section 5)."""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table


def test_e8_gossip_vs_flooding(benchmark):
    report = run_once(benchmark, run_experiment, "E8", "small", 0)
    print()
    print(format_table(report))

    rows = {row["protocol"]: row for row in report.rows}
    flooding = rows["flooding"]["mean_completion"]
    gossip_half = rows["gossip p=0.5"]["mean_completion"]
    epidemic = rows["SI epidemic p=0.5"]["mean_completion"]

    # Removing half the edges at random costs only a small constant slowdown —
    # the virtual dynamic graph is still (M, alpha/2, beta)-stationary.
    assert flooding <= gossip_half <= 6 * flooding
    assert flooding <= epidemic <= 6 * flooding
    # Every protocol completed on every trial (max recorded).
    assert all(row["max_completion"] < 10_000 for row in report.rows)
