"""E7 — Classic edge-MEG: the paper's general bound vs the prior bound of [10].

Appendix A derives ``O(T_mix (1/(n alpha) + 1)^2 log^2 n)`` for generalised
edge-MEGs and compares it with the almost tight ``O(log n / log(1 + n p))``
of [10], concluding the general bound is almost tight whenever ``q >= n p``.
The benchmark sweeps ``p`` at fixed ``q`` and checks (i) both bounds dominate
the measurement, (ii) the measured time decreases in ``p``, and (iii) the
two bounds stay within a polylog factor inside the tight region.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_table
from repro.util.mathutils import logn_factor


def test_e7_edge_meg_bounds(benchmark):
    report = run_once(benchmark, run_experiment, "E7", "small", 0)
    print()
    print(format_table(report))

    measured = report.column_values("measured_mean")
    general = report.column_values("general_bound")
    prior = report.column_values("prior_bound_[10]")
    tight = report.column_values("tight_region(q>=np)")
    n = report.rows[0]["n"]

    for value, bound in zip(measured, general):
        assert value <= bound
    # Denser edge-MEGs flood faster (monotone sweep in p).
    assert measured[0] >= measured[-1]
    # Inside the tight region the two bounds agree up to a polylog factor.
    for row_general, row_prior, is_tight in zip(general, prior, tight):
        if is_tight:
            assert row_general <= 4 * logn_factor(n, 2) * row_prior
