"""repro — reproduction of *Information Spreading in Dynamic Graphs* (PODC 2012).

The package simulates flooding (and richer gossip protocols) over dynamic
graphs and reproduces, as finite-size experiments, every analytical result of
the paper by Clementi, Silvestri and Trevisan:

* the general ``(M, alpha, beta)``-stationary flooding bound (Theorem 1),
* the node-MEG specialisation (Theorem 3),
* geometric mobility models — random waypoint, random walk, random trip
  (Corollary 4),
* random-path / random-walk graph mobility models (Corollaries 5 and 6),
* generalised edge-MEGs (Appendix A).

Top-level convenience imports expose the most commonly used classes; the
sub-packages hold the full API:

``repro.markov``
    Finite Markov chains, stationary distributions and mixing times.
``repro.graphs``
    Mobility graphs (grids, k-augmented grids, tori) and path families.
``repro.meg``
    Markovian evolving graphs: edge-MEGs, node-MEGs and baselines.
``repro.mobility``
    Geometric and graph mobility models realised as node-MEGs.
``repro.core``
    Flooding/gossip processes, stationarity estimation and bound formulas.
``repro.baselines``
    Prior-work comparators (edge-MEG closed form, meeting time).
``repro.experiments``
    Parameter-sweep harness and the per-theorem experiment registry.
``repro.engine``
    Parallel Monte-Carlo execution engine: trial specs, serial/multiprocess
    scheduling, deterministic sharding, the vectorized flooding kernels,
    snapshot replay and the persistent (mergeable) result store.
"""

from repro._lazy import lazy_exports

_getattr, __dir__, __all__ = lazy_exports(
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
        "repro.core.flooding": ("FloodingResult", "flood", "flooding_time"),
        "repro.engine": ("Engine", "ResultStore", "ShardSpec", "SnapshotReplay", "TrialSpec"),
        "repro.markov.chain": ("MarkovChain",),
        "repro.meg.base": ("DynamicGraph",),
        "repro.meg.edge_meg": ("EdgeMEG", "GeneralEdgeMEG"),
        "repro.meg.node_meg": ("NodeMEG",),
        "repro.mobility.random_path": ("RandomPathModel",),
        "repro.mobility.random_walk": ("RandomWalkMobility",),
        "repro.mobility.random_waypoint": ("RandomWaypoint",),
    },
)
__all__ = sorted([*__all__, "__version__"])


def __getattr__(name: str):
    if name == "__version__":
        # Single source of truth is the installed package metadata
        # (pyproject.toml); the literal fallback covers source checkouts
        # driven via PYTHONPATH=src, where no distribution is installed.
        # Resolved on first access, so ``repro --version`` loads no NumPy.
        from importlib.metadata import PackageNotFoundError, version

        try:
            value = version("repro-dynamic-graphs")
        except PackageNotFoundError:  # pragma: no cover - depends on install mode
            value = "2.0.0"
        globals()["__version__"] = value
        return value
    return _getattr(name)
