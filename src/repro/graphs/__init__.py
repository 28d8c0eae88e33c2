"""Mobility-graph substrate.

The graph mobility models of the paper (random paths, random walks,
Corollaries 5 and 6) move agents over a fixed *mobility graph* ``H(V, A)``.
This sub-package builds the graphs used in the paper's discussion — grids,
k-augmented grids, tori — together with families of feasible paths and the
structural properties (δ-regularity, diameter, point congestion) that enter
the bounds.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.graphs.generators": (
            "complete_mobility_graph",
            "cycle_mobility_graph",
            "path_mobility_graph",
            "torus_graph",
        ),
        "repro.graphs.grid": ("augmented_grid_graph", "grid_graph", "grid_side_for_points"),
        "repro.graphs.paths": ("PathFamily", "edge_paths", "shortest_path_family"),
        "repro.graphs.properties": (
            "degree_regularity",
            "diameter",
            "max_point_congestion",
            "path_family_regularity",
        ),
    },
)
