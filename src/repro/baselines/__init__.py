"""Prior-work comparators and trivial lower bounds.

The paper compares its bounds against two earlier results:

* the almost-tight flooding bound ``O(log n / log(1 + n p))`` for the classic
  edge-MEG of Clementi et al. [10] (Appendix A), and
* the meeting-time based bound ``O(T* log n)`` of Dimitriou, Nikoletseas and
  Spirakis [15] for random-walk mobility on general graphs, which Corollary 6
  improves on k-augmented grids.

It also repeatedly invokes trivial lower bounds (``Omega(D)`` for graph
models, ``Omega(L / v)`` for geometric ones).  All of these are implemented
here so the experiments can reproduce both sides of every comparison.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.baselines.edge_meg_bound": ("classic_edge_meg_prior_bound",),
        "repro.baselines.lower_bounds": (
            "diameter_lower_bound",
            "geometric_lower_bound",
            "sparse_waypoint_lower_bound",
        ),
        "repro.baselines.meeting_time": (
            "expected_meeting_time",
            "hitting_time_matrix",
            "meeting_time_bound",
        ),
    },
)
