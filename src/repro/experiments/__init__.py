"""Experiment harness reproducing every analytical result of the paper.

The paper (a PODC theory paper) has no numbered tables or figures; its
"evaluation" is the set of bounds in Theorem 1, Theorem 3, Corollaries 4–6
and Appendix A, plus explicit comparisons against prior bounds.  Each of
those results is reproduced as a registered experiment (E1–E10, see
DESIGN.md): a parameter sweep that measures empirical flooding times and
reports them next to the corresponding bound formula and baselines.

* :mod:`repro.experiments.runner` — generic sweep/measurement machinery;
* :mod:`repro.experiments.registry` — the experiments ``E1``–``E10``: E1–E7
  as declared design rows that one generic planner and assembler run, E8–E10
  with their own planners, each with the paper claims its report must show,
  and :func:`~repro.experiments.registry.run_experiment`;
* :mod:`repro.experiments.pipeline` — the :class:`~repro.experiments.pipeline
  .ExperimentPlan` a planner returns (engine ``TrialSpec`` jobs + assembly)
  and the seed helpers the planners share.  An experiment runs, shards and
  reads back from a store as a :class:`repro.api.CompiledPlan`, like every
  other request;
* :mod:`repro.experiments.report` — text/markdown table rendering used by the
  CLI and EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

#: The registered experiment ids, in order.  Kept here, apart from the
#: registry, so the CLI lists them without importing NumPy.
EXPERIMENT_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10")

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments": ("EXPERIMENT_IDS",),
        "repro.experiments.pipeline": (
            "ExperimentJob",
            "ExperimentPlan",
            "MissingRecordError",
        ),
        "repro.experiments.registry": ("EXPERIMENTS", "get_experiment", "run_experiment"),
        "repro.experiments.report": ("ExperimentReport", "format_markdown", "format_table"),
        "repro.experiments.runner": (
            "SweepMeasurement",
            "measure_flooding_sweep",
            "sweep_as_dicts",
        ),
    },
)
