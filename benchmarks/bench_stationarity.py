"""E10 — Density/independence conditions of the concrete models.

Reproduces the checks that make Theorem 1 applicable to the concrete models:
Corollary 4's positional-uniformity conditions for the random waypoint
(conditions (a) and (b)), Fact 2 / Lemma 15 for node-MEGs, and the
independent-edge case of edge-MEGs.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table


def test_e10_stationarity_conditions(benchmark):
    report = run_once(benchmark, run_experiment, "E10", "small", 0)
    print()
    print(format_table(report))

    values = {
        (row["model"], row["quantity"]): row["value"] for row in report.rows
    }
    # Corollary 4 condition (a): the waypoint density is bounded by a constant
    # multiple of the uniform density (delta ~ 2.25 for the analytic form).
    assert 1.0 <= values[("random waypoint", "delta (analytic density)")] <= 4.0
    # Condition (b): a constant fraction of the square is high-density.
    assert values[("random waypoint", "lambda (analytic density)")] > 0.05
    # The empirical density reproduces the same constants approximately.
    assert values[("random waypoint", "delta (empirical density)")] <= 6.0

    # Node-MEG: the Monte-Carlo alpha estimate matches the exact P_NM and the
    # measured correlation ratio is far below the conservative 17*eta constant.
    exact_alpha = values[("co-location node-MEG", "alpha = P_NM (exact)")]
    mc_alpha = values[("co-location node-MEG", "alpha (Monte-Carlo)")]
    assert abs(mc_alpha - exact_alpha) <= 0.6 * exact_alpha + 0.05
    assert values[("co-location node-MEG", "beta ratio (Monte-Carlo)")] < values[
        ("co-location node-MEG", "beta = 17 eta (Lemma 15)")
    ]

    # Edge-MEG: alpha = p/(p+q), independent edges give beta exactly 1.
    assert values[("classic edge-MEG", "beta (independent edges)")] == 1.0
