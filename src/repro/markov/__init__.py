"""Finite Markov-chain substrate.

Every model in the paper — edge-MEGs, node-MEGs, mobility models — is driven
by a finite Markov chain whose mixing time enters the flooding-time bounds.
This sub-package provides:

* :class:`repro.markov.chain.MarkovChain` — a finite chain with stationary
  distribution, reversibility checks and stepping;
* :mod:`repro.markov.mixing` — exact total-variation mixing times and
  spectral-gap estimates;
* :mod:`repro.markov.sampling` — trajectory sampling utilities;
* :mod:`repro.markov.builders` — constructors for the chains used throughout
  the paper (two-state edge chains, lazy random walks on graphs, cycles,
  grids, product chains).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.markov.builders": (
            "birth_death_chain",
            "complete_graph_walk",
            "cycle_walk",
            "four_state_edge_chain",
            "lazy_random_walk",
            "random_walk_on_graph",
            "two_state_chain",
            "uniform_chain",
        ),
        "repro.markov.chain": ("MarkovChain",),
        "repro.markov.mixing": (
            "mixing_time",
            "relaxation_time",
            "spectral_gap",
            "tv_distance_from_stationarity",
        ),
        "repro.markov.sampling": ("sample_path", "sample_stationary_state", "sample_states"),
    },
)
