"""Request-facade tests: round-trips, validation taxonomy, CLI equivalence.

:mod:`repro.api` is the single seam where work requests become engine plans;
these tests pin its three contracts:

* serialization round-trips exactly (``from_json(to_json(r)) == r``) and
  malformed payloads die in the :class:`~repro.api.RequestError` taxonomy;
* compilation produces the *same* specs and content-addressed store keys as
  the historical construction paths it replaced (sweep runner, experiment
  pipeline, library flood helpers);
* the CLI routed through the facade emits byte-identical results.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    FLOOD_FAMILY_DEFAULTS,
    SCHEMA_VERSION,
    InvalidParameterError,
    RequestError,
    SchemaError,
    UnknownExperimentError,
    UnknownFamilyError,
    WorkRequest,
    compile_request,
    estimator_description,
    experiment_request,
    flood_request,
    sweep_request,
)
from repro.core.flooding import flooding_time_samples
from repro.engine import Engine, ResultStore, batch_store_key
from repro.experiments.registry import get_experiment
from repro.experiments.runner import measure_flooding_sweep
from repro.sweeps import SWEEP_FAMILIES, SWEEP_FAMILY_DEFAULTS


class TestRoundTrips:
    @pytest.mark.parametrize(
        "request_",
        [
            sweep_request("edge-meg", [16, 32], 5, seed=7),
            sweep_request("waypoint", [10], 3, seed=1, params={"side": 4.0}),
            sweep_request("grid-walk", [9, 16], 2, sources="all"),
            sweep_request("edge-meg", [16], 4, num_sources=3),
            experiment_request("E1"),
            experiment_request("E7", scale="full", seed=9),
            flood_request("edge-meg", 5, seed=3, params={"nodes": 32}),
            flood_request("waypoint", 2, sources="all"),
            flood_request("grid-walk", 2, num_sources=2),
        ],
        ids=lambda r: f"{r.kind}-{r.family or r.experiment_id}",
    )
    def test_json_round_trip_is_identity(self, request_):
        assert WorkRequest.from_json(request_.to_json()) == request_

    def test_payload_is_schema_stamped_canonical_json(self):
        request = sweep_request("edge-meg", [16], 3, seed=2)
        payload = json.loads(request.to_json())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "sweep"
        assert payload["nodes"] == [16]
        # Omitted params were canonicalized in from the family defaults.
        assert payload["params"] == SWEEP_FAMILY_DEFAULTS["edge-meg"]

    def test_equal_meaning_requests_are_equal(self):
        """Defaults filled explicitly or implicitly canonicalize identically."""
        implicit = sweep_request("waypoint", [10], 3)
        explicit = sweep_request(
            "waypoint", (10,), 3, params=SWEEP_FAMILY_DEFAULTS["waypoint"]
        )
        assert implicit == explicit
        assert implicit.to_json() == explicit.to_json()

    def test_numeric_coercion_is_type_stable(self):
        """A float-typed integer coerces to the default's type, not its own."""
        request = flood_request("grid-walk", 2, params={"grid_side": 4.0, "nodes": 9})
        assert request.params["grid_side"] == 4
        assert isinstance(request.params["grid_side"], int)


class TestValidationTaxonomy:
    def test_unknown_schema_version(self):
        payload = json.loads(sweep_request("edge-meg", [16], 3).to_json())
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="unsupported request schema"):
            WorkRequest.from_dict(payload)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="request kind"):
            WorkRequest.from_dict({"kind": "tournament"})

    def test_unknown_field_rejected(self):
        payload = json.loads(flood_request("edge-meg", 3).to_json())
        payload["shards"] = 4  # execution hint, not request identity
        with pytest.raises(SchemaError, match="unknown flood request field"):
            WorkRequest.from_dict(payload)

    def test_non_object_body(self):
        with pytest.raises(SchemaError, match="JSON object"):
            WorkRequest.from_dict([1, 2, 3])

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            WorkRequest.from_json("{nope")

    def test_unknown_sweep_family(self):
        with pytest.raises(UnknownFamilyError, match="unknown sweep family"):
            sweep_request("moebius", [16], 3)

    def test_unknown_flood_family(self):
        with pytest.raises(UnknownFamilyError, match="unknown flood family"):
            flood_request("moebius", 3)

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError, match="unknown experiment"):
            experiment_request("E99")

    def test_bad_scale(self):
        with pytest.raises(InvalidParameterError, match="scale"):
            experiment_request("E1", scale="gigantic")

    def test_unknown_parameter_name(self):
        with pytest.raises(InvalidParameterError, match="unknown edge-meg parameter"):
            sweep_request("edge-meg", [16], 3, params={"qq": 0.5})

    def test_non_numeric_parameter(self):
        with pytest.raises(InvalidParameterError, match="must be a number"):
            sweep_request("edge-meg", [16], 3, params={"q": "high"})

    def test_integer_parameter_rejects_fraction(self):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            flood_request("grid-walk", 2, params={"grid_side": 4.5})

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="trials"):
            sweep_request("edge-meg", [16], 0)

    def test_nodes_must_be_non_empty(self):
        with pytest.raises(InvalidParameterError, match="nodes"):
            sweep_request("edge-meg", [], 3)

    def test_bad_sources_token(self):
        with pytest.raises(InvalidParameterError, match="sources"):
            sweep_request("edge-meg", [16], 3, sources="some")

    def test_sources_and_num_sources_exclusive(self):
        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            flood_request("edge-meg", 3, sources="all", num_sources=2)

    def test_cross_kind_fields_forbidden(self):
        with pytest.raises(SchemaError, match="does not apply"):
            WorkRequest(kind="experiment", experiment_id="E1", family="edge-meg")

    def test_taxonomy_is_all_value_errors(self):
        for exc in (
            SchemaError,
            UnknownFamilyError,
            UnknownExperimentError,
            InvalidParameterError,
        ):
            assert issubclass(exc, RequestError)
            assert issubclass(exc, ValueError)


class TestCompilationEquivalence:
    def test_sweep_plan_matches_historical_construction(self):
        """Facade store keys == sweep_trial_specs + batch_store_key keys."""
        from repro.experiments.runner import sweep_trial_specs

        request = sweep_request("edge-meg", [16, 24], 6, seed=7)
        plan = compile_request(request)
        legacy = sweep_trial_specs(
            SWEEP_FAMILIES["edge-meg"],
            [16, 24],
            6,
            rng=7,
            factory_kwargs={"q": 0.5, "avg_degree": 4.0},
        )
        assert plan.shard_mode == "trials"
        assert plan.store_keys == [batch_store_key(spec) for spec in legacy]
        assert [job.tag for job in plan.jobs] == ["n=16", "n=24"]

    def test_experiment_plan_matches_pipeline_compilation(self):
        request = experiment_request("E1", scale="small", seed=3)
        plan = compile_request(request)
        pipeline_plan = get_experiment("E1").planner("small", 3)
        assert plan.shard_mode == "jobs"
        assert plan.store_keys == [job.store_key() for job in pipeline_plan.jobs]
        assert [job.tag for job in plan.jobs] == [job.tag for job in pipeline_plan.jobs]
        assert plan.request.experiment_id == "E1"

    def test_flood_key_matches_library_helper(self, tmp_path):
        """The facade's flood spec hits the cache the library path populated."""
        store = ResultStore(str(tmp_path / "store"))
        model_params = FLOOD_FAMILY_DEFAULTS["edge-meg"] | {"nodes": 24}
        from repro.meg.edge_meg import EdgeMEG

        model = EdgeMEG(24, p=model_params["p"], q=model_params["q"])
        samples = flooding_time_samples(
            model, num_trials=4, rng=5, engine=Engine(store=store)
        )
        plan = compile_request(flood_request("edge-meg", 4, seed=5, params={"nodes": 24}))
        assert len(plan.jobs) == 1
        record = store.get(plan.store_keys[0])
        assert record is not None
        assert [int(t) for t in record["flooding_times"]] == samples

    def test_assembly_from_records_matches_live_run(self, tmp_path):
        """Warm assembly (records only) == the payload of a live engine run."""
        store = ResultStore(str(tmp_path / "store"))
        request = sweep_request("edge-meg", [16, 24], 5, seed=11)
        plan = compile_request(request)
        engine = Engine(store=store)
        for job in plan.jobs:
            engine.run(job.spec)
        records = {job.tag: store.get(job.store_key()) for job in plan.jobs}
        payload = plan.assemble(records)
        assert payload["kind"] == "sweep"
        assert payload["estimator"] == estimator_description(None, None)
        live = measure_flooding_sweep(
            SWEEP_FAMILIES["edge-meg"],
            [16, 24],
            num_trials=5,
            rng=11,
            factory_kwargs={"q": 0.5, "avg_degree": 4.0},
        )
        assert [m["samples"] for m in payload["measurements"]] == [
            list(m.samples) for m in live
        ]

    def test_compile_requires_a_request(self):
        with pytest.raises(SchemaError, match="WorkRequest"):
            compile_request({"kind": "sweep"})


class TestCliEquivalence:
    def test_cli_sweep_json_matches_facade_assembly(self, tmp_path, capsys):
        """`repro sweep --json` samples == the facade's assembled payload."""
        from repro.cli import main

        store_dir = tmp_path / "store"
        json_path = tmp_path / "sweep.json"
        exit_code = main(
            [
                "sweep", "edge-meg", "--nodes", "16,24", "--trials", "4",
                "--seed", "7", "--results-dir", str(store_dir),
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        cli_payload = json.loads(json_path.read_text())

        plan = compile_request(sweep_request("edge-meg", [16, 24], 4, seed=7))
        store = ResultStore(str(store_dir))
        records = {job.tag: store.get(job.store_key()) for job in plan.jobs}
        assert all(record is not None for record in records.values())
        api_payload = plan.assemble(records)
        assert [m["samples"] for m in cli_payload["measurements"]] == [
            m["samples"] for m in api_payload["measurements"]
        ]
        assert cli_payload["estimator"] == api_payload["estimator"]

    def test_cli_flood_json_matches_facade_assembly(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        json_path = tmp_path / "flood.json"
        exit_code = main(
            [
                "flood", "edge-meg", "--nodes", "24", "--trials", "3",
                "--seed", "2", "--results-dir", str(store_dir),
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        cli_payload = json.loads(json_path.read_text())

        plan = compile_request(flood_request("edge-meg", 3, seed=2, params={"nodes": 24}))
        store = ResultStore(str(store_dir))
        record = store.get(plan.store_keys[0])
        assert record is not None
        api_payload = plan.assemble({"flood": record})
        assert cli_payload["samples"] == api_payload["samples"]
        assert cli_payload["summary"] == api_payload["summary"]

    def test_cli_rejects_bad_family_parameter(self, capsys):
        from repro.cli import main

        exit_code = main(
            ["flood", "edge-meg", "--nodes", "0", "--trials", "2"]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def compiles(monkeypatch):
    """Every in-process ``compile_request`` call, under any imported name."""
    import importlib
    import sys

    import repro.api

    # Loaded first, so none of them binds the counting wrapper at import
    # time, where the monkeypatch would not undo it.
    for name in ("repro.cli", "repro.fleet.coordinator", "repro.serve.service"):
        importlib.import_module(name)
    calls = []
    original = repro.api.compile_request

    def counting(request):
        calls.append(request)
        return original(request)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and module is not None:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counting)
    return calls


class TestCompileOnce:
    """Each door compiles its request once, then runs or reads that one plan."""

    FLEET = ["--local-workers", "1", "--max-wait", "300"]

    def test_sweep_compiles_once(self, compiles, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "edge-meg", "--nodes", "8,12", "--trials", "2"]
        assert main([*argv, "--results-dir", str(tmp_path / "store")]) == 0
        assert len(compiles) == 1

    def test_fleet_sweep_compiles_once_and_resume_adds_none(
        self, compiles, tmp_path, capsys
    ):
        from repro.cli import main

        argv = [
            "fleet", "run", "sweep", "edge-meg", "--nodes", "8,12", "--trials", "2",
            "--shards", "2", *self.FLEET, "--spool", str(tmp_path / "spool"),
            "--results-dir", str(tmp_path / "merged"),
        ]
        assert main(argv) == 0
        assert len(compiles) == 1
        compiles.clear()
        assert main([*argv, "--resume"]) == 0
        assert len(compiles) == 1

    def test_fleet_experiment_builds_its_plan_once(
        self, compiles, tmp_path, monkeypatch, capsys
    ):
        import dataclasses

        from repro.cli import main
        from repro.experiments.registry import EXPERIMENTS

        built = []
        experiment = EXPERIMENTS["E9"]

        def planner(scale, seed):
            built.append((scale, seed))
            return experiment.planner(scale, seed)

        monkeypatch.setitem(
            EXPERIMENTS, "E9", dataclasses.replace(experiment, planner=planner)
        )
        argv = [
            "fleet", "run", "experiment", "E9", "--shards", "2", *self.FLEET,
            "--spool", str(tmp_path / "spool"), "--results-dir", str(tmp_path / "merged"),
        ]
        assert main(argv) == 0
        assert built == [("small", 0)]
        assert len(compiles) == 1

    def test_cold_submit_compiles_once(self, compiles, tmp_path):
        from repro.fleet.queue import JobSpool
        from repro.serve.service import SimulationService

        service = SimulationService(
            ResultStore(str(tmp_path / "store")), JobSpool(str(tmp_path / "spool"))
        )
        body = {"kind": "sweep", "family": "edge-meg", "nodes": [8], "trials": 2}
        assert service.submit(body).status == 202
        assert len(compiles) == 1

    def test_cold_fill_polls_reuse_the_submitted_plan(self, compiles, tmp_path):
        from repro.fleet.jobs import execute_job
        from repro.fleet.queue import JobSpool
        from repro.serve.service import SimulationService

        spool = JobSpool(str(tmp_path / "spool"))
        service = SimulationService(ResultStore(str(tmp_path / "store")), spool)
        body = {"kind": "sweep", "family": "edge-meg", "nodes": [8, 12], "trials": 2}
        ticket = service.submit(body).payload["ticket"]
        assert service.poll(ticket).status == 202
        assert len(compiles) == 1
        jobs = 0
        while (job := spool.claim("worker")) is not None:
            spool.mark_done(job.id, execute_job(job.payload, spool))  # compiles once
            jobs += 1
        answer = service.poll(ticket)
        assert (answer.status, answer.headers["X-Cache"]) == (200, "fill")
        assert len(compiles) == 1 + jobs
        # An answered ticket's plan is dropped; later polls compile the
        # ticket file, as a restarted server does.
        restarted = SimulationService(ResultStore(str(tmp_path / "store")), spool)
        for server in (service, restarted):
            assert server.poll(ticket).payload == answer.payload
        assert len(compiles) == 3 + jobs


class TestPlanRecords:
    def test_records_name_the_first_missing_job(self, tmp_path):
        from repro.experiments.pipeline import MissingRecordError

        plan = compile_request(sweep_request("edge-meg", [8, 12], 2, seed=7))
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(MissingRecordError) as error:
            plan.records(store)
        assert str(error.value) == (
            f"store {store.path} holds no record for job 'n=8' of the edge-meg "
            f"sweep (seed=7); run or merge the shard owning that job first"
        )
        plan.run(Engine(store=store))
        assert list(plan.records(store)) == ["n=8", "n=12"]


#: every run leaf's argv form pinned below (``{spool}``/``{store}`` are
#: filled with per-test paths), one case per estimator and parameter shape
_SWEEP_POINTS = ["--nodes", "8,12", "--trials", "8", "--seed", "3"]
_NON_DEFAULT_PARAMS = {
    "edge-meg": ["--q", "0.25", "--avg-degree", "3"],
    "waypoint": ["--side", "5", "--radius", "1.5", "--speed", "2"],
    "grid-walk": ["--grid-side", "4", "--augment-k", "2"],
}
_FLOOD_PARAMS = {
    "edge-meg": ["--nodes", "12", "--p", "0.2", "--q", "0.4"],
    "waypoint": ["--nodes", "10", "--side", "4", "--radius", "1.5", "--speed", "2"],
    "grid-walk": ["--nodes", "9", "--grid-side", "3", "--augment-k", "2"],
}
_FLEET = ["--shards", "2", "--spool", "{spool}", "--results-dir", "{store}"]
ARGV_CASES = {
    **{
        f"sweep {family} {case}": ["sweep", family, *_SWEEP_POINTS, *extra]
        for family in SWEEP_FAMILIES
        for case, extra in (
            ("default", []),
            ("params", _NON_DEFAULT_PARAMS[family]),
            ("all-sources", ["--all-sources"]),
            ("source-sample", ["--source-sample", "3"]),
            ("target-ci", ["--target-ci", "2", "--min-trials", "4", "--check-every", "4"]),
        )
    },
    **{
        f"flood {family} params": [
            "flood", family, *_FLOOD_PARAMS[family], "--trials", "2", "--seed", "4",
        ]
        for family in SWEEP_FAMILIES
    },
    "experiment E3": ["experiment", "E3", "--seed", "5"],
    "fleet run sweep": [
        "fleet", "run", "sweep", "waypoint", *_SWEEP_POINTS, "--side", "5",
        "--all-sources", *_FLEET,
    ],
    "fleet run sweep target-ci": [
        "fleet", "run", "sweep", "edge-meg", *_SWEEP_POINTS, "--q", "0.25",
        "--source-sample", "2", "--target-ci", "2", "--pilot-trials", "3", *_FLEET,
    ],
    "fleet run experiment": ["fleet", "run", "experiment", "E3", "--seed", "4", *_FLEET],
}

#: case -> the payload of every request its argv compiles, in order (a
#: ``fleet run sweep --target-ci`` compiles its pilot, then the sized run)
REQUESTS_GOLDEN = Path(__file__).parent / "data" / "argv_requests_golden.json"


class TestArgvRequests:
    """Each run leaf's argv compiles to the same requests it always has."""

    @pytest.mark.parametrize("case", sorted(ARGV_CASES))
    def test_argv_compiles_its_pinned_requests(
        self, case, compiles, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.fleet import coordinator

        def no_fleet(*args, **kwargs):
            # Stop a fleet run after it compiled its plan; nothing is spooled.
            raise coordinator.FleetError("stopped before the fleet drains")

        monkeypatch.setattr(coordinator, "run_fleet", no_fleet)
        paths = {"spool": str(tmp_path / "spool"), "store": str(tmp_path / "store")}
        argv = [part.format(**paths) for part in ARGV_CASES[case]]
        assert main(argv) == (1 if argv[0] == "fleet" else 0)
        pinned = json.loads(REQUESTS_GOLDEN.read_text(encoding="utf-8"))[case]
        # Compared as canonical text, so an int that turns float shows too.
        assert [request.to_json() for request in compiles] == [
            json.dumps(payload, sort_keys=True, separators=(",", ":")) for payload in pinned
        ]


class TestNegativeSeed:
    """A negative seed is a bad request at every door, never a NumPy traceback."""

    BODIES = {
        "sweep": {"kind": "sweep", "family": "edge-meg", "nodes": [16], "trials": 2, "seed": -1},
        "experiment": {"kind": "experiment", "experiment_id": "E1", "seed": -1},
        "flood": {"kind": "flood", "family": "edge-meg", "trials": 2, "seed": -1},
    }
    ARGVS = {
        "experiment": ["experiment", "E1", "--seed", "-1"],
        "experiments-run": ["experiments", "run", "E1", "--seed", "-1"],
        "experiments-run-all": ["experiments", "run-all", "--seed", "-1"],
        "flood": ["flood", "edge-meg", "--nodes", "16", "--trials", "2", "--seed", "-1"],
        "sweep": ["sweep", "edge-meg", "--nodes", "16", "--trials", "2", "--seed", "-1"],
        "fleet-experiment": ["fleet", "run", "experiment", "E1", "--seed", "-1"],
        "fleet-sweep": [
            "fleet", "run", "sweep", "edge-meg", "--nodes", "16", "--trials", "2",
            "--seed", "-1",
        ],
    }

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_request_rejects_negative_seed(self, kind):
        with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer"):
            WorkRequest.from_dict(self.BODIES[kind])

    def test_zero_seed_is_accepted(self):
        assert experiment_request("E1", seed=0).seed == 0

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_serve_answers_400(self, kind, tmp_path):
        from repro.fleet.queue import JobSpool
        from repro.serve.service import SimulationService

        service = SimulationService(ResultStore(tmp_path / "store"), JobSpool(tmp_path / "spool"))
        result = service.submit(self.BODIES[kind])
        assert result.status == 400
        assert result.payload["error"]["type"] == "InvalidParameterError"
        assert "seed must be a non-negative integer" in result.payload["error"]["message"]
        assert service.spool.counts()["jobs"] == 0

    @pytest.mark.parametrize("case", sorted(ARGVS))
    def test_cli_prints_error_and_exits_2(self, case, tmp_path, capsys):
        from repro.cli import main

        argv = list(self.ARGVS[case])
        if argv[0] == "fleet":
            argv += ["--shards", "2", "--spool", str(tmp_path / "spool"),
                     "--results-dir", str(tmp_path / "merged")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert "Traceback" not in captured.out
        assert list(tmp_path.iterdir()) == []
