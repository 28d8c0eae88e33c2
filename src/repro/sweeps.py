"""Model-family factories for node-count sweeps.

Module-level functions (not closures or partials) so the built specs are
picklable for worker pools and carry stable cache tokens: the result-store
key of a sweep point depends only on the factory's qualified name, the
sweep value and these keyword arguments — identical across machines, which
is what lets sharded CI jobs, fleet workers and local runs share one
logical store.

Both the CLI (``repro sweep``) and the fleet worker
(:mod:`repro.fleet.worker`) resolve families through :data:`SWEEP_FAMILIES`,
so a fleet job descriptor can name a family by its short string and every
executor rebuilds exactly the same :class:`~repro.engine.TrialSpec` —
including adaptive sweeps, whose :class:`~repro.stats.sequential.StoppingRule`
rides on the spec while the family factory stays oblivious to it.
"""

from __future__ import annotations


def sweep_edge_meg_model(num_nodes: int, q: float = 0.5, avg_degree: float = 4.0):
    """Edge-MEG at constant expected degree (sparse regime) for node sweeps."""
    from repro.meg.edge_meg import EdgeMEG

    birth = min(1.0, avg_degree / max(num_nodes - 1, 1))
    return EdgeMEG(num_nodes, p=birth, q=q)


def sweep_waypoint_model(
    num_nodes: int, side: float = 6.0, radius: float = 1.2, speed: float = 1.0
):
    """Random-waypoint model with fixed geometry for node sweeps."""
    from repro.mobility.random_waypoint import RandomWaypoint

    return RandomWaypoint(num_nodes, side=side, radius=radius, v_min=speed)


def sweep_grid_walk_model(num_nodes: int, grid_side: int = 6, augment_k: int = 1):
    """Random walks on an augmented grid with fixed geometry for node sweeps."""
    from repro.graphs.grid import augmented_grid_graph
    from repro.mobility.random_path import GraphRandomWalkMobility

    graph = augmented_grid_graph(grid_side, augment_k)
    return GraphRandomWalkMobility(num_nodes, graph, holding_probability=0.5)


SWEEP_FAMILIES = {
    "edge-meg": sweep_edge_meg_model,
    "waypoint": sweep_waypoint_model,
    "grid-walk": sweep_grid_walk_model,
}

#: Each family's parameters and their defaults: the fixed keyword arguments
#: of the sweep factories above, and the model parameters of one flood.  The
#: CLI generates each ``repro sweep``/``repro flood`` family's flags (type
#: and default) from these tables, and the :mod:`repro.api` request facade
#: fills omitted parameters from them, so equal workloads canonicalize to
#: equal parameters (and equal store keys) whichever door they come through.
SWEEP_FAMILY_DEFAULTS: dict[str, dict] = {
    "edge-meg": {"q": 0.5, "avg_degree": 4.0},
    "waypoint": {"side": 6.0, "radius": 1.2, "speed": 1.0},
    "grid-walk": {"grid_side": 6, "augment_k": 1},
}
FLOOD_FAMILY_DEFAULTS: dict[str, dict] = {
    "edge-meg": {"nodes": 100, "p": 0.01, "q": 0.5},
    "waypoint": {"nodes": 100, "side": 10.0, "radius": 1.0, "speed": 1.0},
    "grid-walk": {"nodes": 64, "grid_side": 8, "augment_k": 1},
}


def resolve_family(name: str):
    """The factory registered under ``name`` (clean error on a typo)."""
    try:
        return SWEEP_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep family {name!r}; known families: "
            f"{', '.join(sorted(SWEEP_FAMILIES))}"
        ) from None
