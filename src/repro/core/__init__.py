"""Core contribution: flooding over dynamic graphs and the paper's bounds.

* :mod:`repro.core.flooding` — the flooding process ``I_{t+1} = I_t ∪ N_{E_t}(I_t)``
  over any :class:`repro.meg.base.DynamicGraph`;
* :mod:`repro.core.spreading` — the randomised gossip variants sketched in the
  paper's conclusions (transmit to a random subset of neighbours), reduced to
  flooding over a virtual dynamic graph;
* :mod:`repro.core.epochs` — the expansion quantities used by the proof of
  Theorem 1 (``deg^tau_{i,A}``, ``deg^tau_{A,B}``, ``spread^{tau,T}_A``),
  measured empirically;
* :mod:`repro.core.stationarity` — empirical estimation of the
  ``(M, alpha, beta)``-stationarity parameters of an arbitrary process;
* :mod:`repro.core.bounds` — the bound formulas of Theorem 1, Theorem 3,
  Corollaries 4–6 and the generalised edge-MEG;
* :mod:`repro.core.metrics` — flooding-time statistics over repeated trials.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.bounds": (
            "corollary4_bound",
            "corollary5_bound",
            "corollary6_bound",
            "edge_meg_general_bound",
            "theorem1_bound",
            "theorem3_bound",
            "waypoint_flooding_bound",
        ),
        "repro.core.epochs": ("degree_into_set", "set_expansion", "spread_over_window"),
        "repro.core.flooding": (
            "FloodingResult",
            "batch_source_flooding_times",
            "batched_flooding_time_samples",
            "default_max_steps",
            "flood",
            "flood_sources_set",
            "flooding_time",
            "flooding_time_samples",
            "multi_source_flood",
            "worst_case_flooding_time",
        ),
        "repro.core.metrics": ("flooding_time_statistics",),
        "repro.core.spreading": (
            "SpreadingResult",
            "gossip_spread",
            "push_pull_spread",
            "si_epidemic",
        ),
        "repro.core.stationarity": (
            "StationarityEstimate",
            "estimate_beta",
            "estimate_edge_probability",
            "estimate_stationarity",
        ),
    },
)
