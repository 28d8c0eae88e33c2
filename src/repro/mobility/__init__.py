"""Mobility models realised as dynamic graphs.

The paper's Section 4.1 applies the node-MEG machinery to two families of
mobility models:

* **geometric models** — agents move in a bounded region of the plane and two
  agents are connected when their Euclidean distance is at most the
  transmission radius ``r``.  We implement the random walk on a grid, the
  random waypoint (the model whose flooding time the paper bounds for the
  first time), the generic random trip model and the Manhattan waypoint
  variant of [13];
* **graph models** — agents move over a fixed mobility graph along feasible
  paths (the random-path model), with the plain random walk on the graph as
  the special case where paths are single edges.

All models implement :class:`repro.meg.base.DynamicGraph`, so the flooding
simulator and the stationarity estimators apply to them directly.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mobility.connection": ("UnitDiskConnection", "radius_edges"),
        "repro.mobility.geometry": ("SquareRegion", "discretize_square"),
        "repro.mobility.manhattan": ("ManhattanWaypoint",),
        "repro.mobility.positional": (
            "empirical_positional_distribution",
            "uniformity_parameters",
            "waypoint_density",
        ),
        "repro.mobility.random_direction": ("RandomDirection",),
        "repro.mobility.random_path": ("GraphRandomWalkMobility", "RandomPathModel"),
        "repro.mobility.random_trip": ("RandomTrip", "TrajectorySampler"),
        "repro.mobility.random_walk": ("RandomWalkMobility",),
        "repro.mobility.random_waypoint": ("RandomWaypoint",),
        "repro.mobility.waypoint_chain": ("WaypointChainModel", "build_waypoint_chain"),
    },
)
