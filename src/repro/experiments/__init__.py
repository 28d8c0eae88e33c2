"""Experiment harness reproducing every analytical result of the paper.

The paper (a PODC theory paper) has no numbered tables or figures; its
"evaluation" is the set of bounds in Theorem 1, Theorem 3, Corollaries 4–6
and Appendix A, plus explicit comparisons against prior bounds.  Each of
those results is reproduced as a registered experiment (E1–E10, see
DESIGN.md): a parameter sweep that measures empirical flooding times and
reports them next to the corresponding bound formula and baselines.

* :mod:`repro.experiments.runner` — generic sweep/measurement machinery;
* :mod:`repro.experiments.registry` — the experiment definitions ``E1``–``E10``
  as declarative plan builders (engine ``TrialSpec`` jobs + assembly);
* :mod:`repro.experiments.pipeline` — compiles an experiment into an
  :class:`~repro.experiments.pipeline.ExperimentPlan` and executes it through
  :class:`repro.engine.Engine` (worker pools, shards, result-store caching,
  store-only assembly);
* :mod:`repro.experiments.report` — text/markdown table rendering used by the
  benchmarks and EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.pipeline": (
            "ExperimentJob",
            "ExperimentPlan",
            "MissingRecordError",
            "PipelineRun",
            "assemble_from_store",
            "compile_experiment",
            "execute_plan",
            "run_experiment_pipeline",
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
