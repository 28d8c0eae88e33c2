"""E9 — Expansion machinery of Lemmas 9-11 (the proof engine of Theorem 1)."""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table


def test_e9_expansion_quantities(benchmark):
    report = run_once(benchmark, run_experiment, "E9", "small", 0)
    print()
    print(format_table(report))

    rows = {row["quantity"]: row for row in report.rows}
    # deg_{i,A}: the measured mean tracks the |A| * alpha prediction.  (No
    # quantile check here: a single node's degree into A has mean ~2, so its
    # 10% quantile is legitimately 0 for a sizeable fraction of seeds.)
    degree_row = rows["deg_{i,A} (|A|=n/2)"]
    assert degree_row["measured_mean"] >= 0.5 * degree_row["predicted_mean"]
    assert degree_row["measured_mean"] <= 2.0 * degree_row["predicted_mean"]
    # deg_{A,B} and spread: measured means are within a factor 2 of the
    # independent-edge predictions, and the lower quantiles do not collapse —
    # the set-level concentration Lemmas 9-11 need.
    for name, row in rows.items():
        assert row["measured_mean"] >= 0.4 * row["predicted_mean"], name
        if name != "deg_{i,A} (|A|=n/2)":
            assert row["measured_q10"] >= 0.2 * row["measured_mean"], name
