"""E6 — k-augmented grids: Corollary 6 vs the meeting-time bound of [15].

The paper's comparison: on a k-augmented grid the mixing time of a single
random walk drops (roughly like 1/k^2) while the meeting time of two walks —
the quantity driving the prior bound of [15] — stays essentially that of the
plain grid.  The benchmark verifies who-wins: mixing time falls much faster
than meeting time as k grows, and the measured flooding time falls with k.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table


def test_e6_augmented_grid_vs_meeting_time(benchmark):
    report = run_once(benchmark, run_experiment, "E6", "small", 0)
    print()
    print(format_table(report))

    ks = report.column_values("k")
    mixing = report.column_values("T_mix")
    meeting = report.column_values("meeting_time")
    measured = report.column_values("measured_mean")

    assert ks[0] == 1
    mixing_drop = mixing[0] / mixing[-1]
    meeting_drop = meeting[0] / max(meeting[-1], 1e-9)
    # Who wins: the paper's T_mix-driven bound improves with k markedly faster
    # than the meeting-time bound of [15].
    assert mixing_drop >= 2.0
    assert mixing_drop >= 1.5 * meeting_drop
    # The measured flooding time also improves as k grows.
    assert measured[-1] <= measured[0]
