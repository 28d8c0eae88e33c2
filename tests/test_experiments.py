"""Tests for repro.experiments (report, runner, registry)."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENT_IDS
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.report import ExperimentReport, format_markdown, format_table
from repro.experiments.runner import measure_flooding_sweep
from repro.meg.edge_meg import EdgeMEG


class TestExperimentReport:
    def _report(self):
        report = ExperimentReport(
            experiment_id="X1",
            title="demo",
            paper_reference="Theorem 0",
            columns=["n", "value", "ok"],
        )
        report.add_row(n=10, value=3.14159, ok=True)
        report.add_row(n=20, value=1e-6, ok=False)
        report.add_note("a remark")
        return report

    def test_add_row_and_column_values(self):
        report = self._report()
        assert report.column_values("n") == [10, 20]
        assert len(report.rows) == 2

    def test_format_table_contains_everything(self):
        text = format_table(self._report())
        assert "X1: demo" in text
        assert "Theorem 0" in text
        assert "3.142" in text
        assert "yes" in text and "no" in text
        assert "note: a remark" in text

    def test_format_table_scientific_notation_for_small_values(self):
        text = format_table(self._report())
        assert "1.000e-06" in text

    def test_format_markdown_structure(self):
        text = format_markdown(self._report())
        assert text.startswith("### X1: demo")
        assert "| n | value | ok |" in text
        assert "| --- | --- | --- |" in text
        assert "- a remark" in text

    def test_missing_column_rendered_blank(self):
        report = ExperimentReport("X2", "demo", "ref", columns=["a", "b"])
        report.add_row(a=1)
        assert "1" in format_table(report)


class TestMeasureFloodingSweep:
    def test_sweep_over_sizes(self):
        measurements = measure_flooding_sweep(
            lambda n: EdgeMEG(n, p=4.0 / n, q=0.5),
            parameter_values=[20, 40],
            num_trials=4,
            rng=0,
        )
        assert len(measurements) == 2
        assert measurements[0].num_nodes == 20
        assert measurements[1].num_nodes == 40
        assert measurements[0].mean >= 1
        assert measurements[0].whp_value >= measurements[0].median

    def test_reproducible(self):
        def factory(n):
            return EdgeMEG(n, p=0.2, q=0.2)

        a = measure_flooding_sweep(factory, [15], num_trials=3, rng=7)
        b = measure_flooding_sweep(factory, [15], num_trials=3, rng=7)
        assert a[0].summary == b[0].summary

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            measure_flooding_sweep(lambda n: EdgeMEG(n, 0.1, 0.1), [], num_trials=3)
        with pytest.raises(ValueError):
            measure_flooding_sweep(lambda n: EdgeMEG(n, 0.1, 0.1), [10], num_trials=0)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 11)}

    def test_get_experiment(self):
        experiment = get_experiment("E1")
        assert experiment.experiment_id == "E1"

    def test_ids_listed_without_the_registry_match_it(self):
        assert tuple(EXPERIMENTS) == EXPERIMENT_IDS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("E99")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("E1", scale="huge")

    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_small_scale_experiments_produce_rows(self, experiment_id):
        experiment = EXPERIMENTS[experiment_id]
        assert experiment.claims
        for seed in (0, 1, 2):
            report = run_experiment(experiment_id, scale="small", seed=seed)
            assert report.experiment_id == experiment_id
            assert len(report.rows) >= 3
            assert all(report.columns)
            for claim in experiment.claims:
                assert claim.holds(report), (
                    f"{experiment_id} seed {seed}: claim {claim.name} fails: {claim.statement}"
                )

    def test_e1_bound_dominates_measurement(self):
        report = run_experiment("E1", scale="small", seed=1)
        for row in report.rows:
            assert row["measured_mean"] <= row["theorem1_bound"]

    def test_a_bound_below_the_measurement_fails_its_claim(self):
        report = run_experiment("E1", scale="small", seed=0)
        for row in report.rows:
            row["theorem1_bound"] *= 1e-3
        (dominance,) = [c for c in EXPERIMENTS["E1"].claims if c.name == "bound_dominates"]
        assert not dominance.holds(report)

    def test_e7_has_tightness_column(self):
        report = run_experiment("E7", scale="small", seed=2)
        values = report.column_values("tight_region(q>=np)")
        assert True in values and False in values
