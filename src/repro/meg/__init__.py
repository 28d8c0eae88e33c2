"""Markovian evolving graphs (MEGs).

A dynamic graph ``G([n], {E_t})`` is Markovian when the distribution of the
snapshot at time ``t`` depends only on the snapshot at time ``t - 1``.  This
sub-package provides the simulation interface shared by every dynamic-graph
model in the library (:class:`repro.meg.base.DynamicGraph`) and the concrete
link-based models studied in the paper:

* :class:`repro.meg.edge_meg.EdgeMEG` — the classic edge-MEG of [10], one
  independent two-state (birth/death) chain per edge;
* :class:`repro.meg.edge_meg.GeneralEdgeMEG` — the paper's Appendix-A
  generalisation, one arbitrary hidden chain per edge plus an on/off map;
* :class:`repro.meg.node_meg.NodeMEG` — node-MEGs ``NM(n, M, C)``, one
  independent chain per node plus a symmetric connection map (Section 4);
* baselines: i.i.d. Erdős–Rényi snapshot sequences, explicit (worst-case)
  schedules and a rotating T-interval-connected adversary.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.meg.adversarial": ("ExplicitScheduleGraph", "RotatingSpanningTreeGraph"),
        "repro.meg.base": ("DynamicGraph", "StaticGraphProcess"),
        "repro.meg.edge_meg": ("EdgeMEG", "GeneralEdgeMEG", "four_state_edge_meg"),
        "repro.meg.erdos_renyi": ("ErdosRenyiSequence",),
        "repro.meg.node_meg": ("NodeMEG",),
        "repro.meg.snapshots": (
            "SnapshotStats",
            "is_t_interval_connected",
            "largest_stable_interval",
            "snapshot_statistics",
        ),
    },
)
