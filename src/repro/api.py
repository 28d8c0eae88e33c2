"""Unified work-request facade: one boundary where requests become plans.

Historically, request-to-:class:`~repro.engine.TrialSpec` compilation was
smeared across three call sites — the argparse handlers in
:mod:`repro.cli`, the sweep factories in :mod:`repro.sweeps` and the fleet
job descriptors in :mod:`repro.fleet.jobs` — and adding a fourth consumer
(the ``repro serve`` HTTP boundary) would have meant a fourth copy.  This
module is the single seam instead:

:class:`WorkRequest`
    A JSON-able description of a sweep, experiment or flood workload, with
    schema-versioned :meth:`~WorkRequest.to_json` / :meth:`~WorkRequest
    .from_json` round-tripping and strict validation.  Family parameters
    are *canonicalized* on construction — unknown names rejected, missing
    ones filled with the family's defaults, values coerced to the default's
    numeric type — so two requests that mean the same workload compile to
    the same specs and therefore the same content-addressed store keys.
:func:`compile_request`
    ``WorkRequest -> CompiledPlan``: the tagged :class:`~repro.engine
    .TrialSpec` jobs, their expected store keys, the shard semantics
    (``"trials"`` vs ``"jobs"``) and a pure assembly function mapping store
    records to the request's JSON result payload.
:class:`CompiledPlan`
    What every door does with a compiled request: :meth:`~CompiledPlan.run`
    executes it (or one shard of it) through an engine, and
    :meth:`~CompiledPlan.records` reads its results back from a store.

Validation failures raise the :class:`RequestError` taxonomy (all
``ValueError`` subclasses): :class:`SchemaError` for malformed payloads,
:class:`UnknownFamilyError` / :class:`UnknownExperimentError` for bad
identifiers, :class:`InvalidParameterError` for bad values.  ``repro
serve`` maps exactly these onto structured HTTP 400 bodies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from repro.engine import BatchResult, Engine, ResultStore, TrialSpec, shard_store_key
from repro.experiments import EXPERIMENT_IDS
from repro.experiments.pipeline import SCALES, ExperimentJob, MissingRecordError
from repro.experiments.runner import (
    measurement_from_record,
    sweep_as_dicts,
    sweep_trial_specs,
)
from repro.stats.sequential import StoppingRule
# The flood table is re-exported here, next to the requests it canonicalizes.
from repro.sweeps import (
    FLOOD_FAMILY_DEFAULTS as FLOOD_FAMILY_DEFAULTS,
    SWEEP_FAMILY_DEFAULTS,
    resolve_family,
)
from repro.telemetry import core as telemetry
from repro.util.stats import summarize

#: Version stamped into (and required of) serialized request payloads.
SCHEMA_VERSION = 1

#: The request kinds this facade compiles.
REQUEST_KINDS = ("sweep", "experiment", "flood")

_KIND_FIELDS = {
    "sweep": (
        "family", "nodes", "trials", "seed", "sources", "num_sources", "params",
        "stopping",
    ),
    "experiment": ("experiment_id", "scale", "seed"),
    "flood": ("family", "trials", "seed", "sources", "num_sources", "params"),
}


class RequestError(ValueError):
    """A work request that cannot be compiled (the HTTP 400 family)."""


class SchemaError(RequestError):
    """A request payload that is structurally malformed."""


class UnknownFamilyError(RequestError):
    """A request naming a model family that is not registered."""


class UnknownExperimentError(RequestError):
    """A request naming an experiment id that is not registered."""


class InvalidParameterError(RequestError):
    """A request carrying an unknown parameter or an invalid value."""


def estimator_description(sources: Optional[str], num_sources: Optional[int]) -> str:
    """The human-readable estimator line shared by the CLI and API payloads."""
    if sources == "all":
        return "worst case over all sources"
    if num_sources is not None:
        return f"worst case over {num_sources} sampled sources"
    return "single source"


def _coerce_like(name: str, value: object, default: object, context: str) -> object:
    """``value`` coerced to the type of ``default`` (strict for integers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"{context} parameter {name!r} must be a number, got {value!r}"
        )
    if isinstance(default, bool):  # pragma: no cover - no boolean params today
        raise InvalidParameterError(f"{context} parameter {name!r} is not settable")
    if isinstance(default, int):
        if float(value) != int(value):
            raise InvalidParameterError(
                f"{context} parameter {name!r} must be an integer, got {value!r}"
            )
        return int(value)
    return float(value)


def _canonical_params(
    params: Optional[Mapping], defaults: Mapping, context: str
) -> dict:
    """Validated params: unknown names rejected, gaps filled from defaults."""
    given = dict(params or {})
    unknown = set(given) - set(defaults)
    if unknown:
        raise InvalidParameterError(
            f"unknown {context} parameter(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(defaults))}"
        )
    canonical = {}
    for name, default in defaults.items():
        if name in given:
            canonical[name] = _coerce_like(name, given[name], default, context)
        else:
            canonical[name] = default
    return canonical


def _require_int(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if float(value) != int(value):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=True)
class WorkRequest:
    """One JSON-able unit of simulation work (sweep, experiment or flood).

    Construction *is* validation: any instance that exists compiles.  Use
    the :func:`sweep_request` / :func:`experiment_request` /
    :func:`flood_request` conveniences, or :meth:`from_dict` /
    :meth:`from_json` at serialization boundaries.
    """

    kind: str
    family: Optional[str] = None
    experiment_id: Optional[str] = None
    scale: str = "small"
    nodes: tuple = ()
    #: One trial count for every point, or (sweeps only) a per-point tuple —
    #: how the fleet's variance-aware pilot sizes noisy points individually.
    trials: object = 0
    seed: int = 0
    sources: Optional[str] = None
    num_sources: Optional[int] = None
    params: dict = field(default_factory=dict)
    #: Optional sequential stopping rule (sweeps only); ``trials`` then caps
    #: the per-point budget.  Accepts a mapping at the JSON boundary.
    stopping: Optional[StoppingRule] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise SchemaError(
                f"request kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )
        {
            "sweep": self._normalize_sweep,
            "experiment": self._normalize_experiment,
            "flood": self._normalize_flood,
        }[self.kind]()

    # -------------------------------------------------------------- #
    # per-kind normalization (runs once, under __post_init__)
    # -------------------------------------------------------------- #
    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _normalize_sources(self) -> None:
        if self.sources is not None and self.sources != "all":
            raise InvalidParameterError(
                f"{self.kind} sources must be 'all' or None (use num_sources "
                f"to sample), got {self.sources!r}"
            )
        if self.num_sources is not None:
            if self.sources is not None:
                raise InvalidParameterError(
                    "sources and num_sources are mutually exclusive"
                )
            num_sources = _require_int("num_sources", self.num_sources)
            if num_sources < 1:
                raise InvalidParameterError(
                    f"num_sources must be >= 1, got {num_sources}"
                )
            self._set(num_sources=num_sources)

    def _normalize_trials_seed(self) -> None:
        trials = _require_int("trials", self.trials)
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        self._set(trials=trials, seed=_require_int("seed", self.seed))

    def _forbid(self, *names: str) -> None:
        blank = {"family": None, "experiment_id": None, "nodes": (), "trials": 0,
                 "sources": None, "num_sources": None, "params": {},
                 "stopping": None}
        for name in names:
            if getattr(self, name) not in (blank[name], None):
                raise SchemaError(
                    f"{name!r} does not apply to {self.kind} requests"
                )

    def _normalize_sweep(self) -> None:
        self._forbid("experiment_id")
        if not self.family:
            raise SchemaError("a sweep request needs a family")
        try:
            resolve_family(self.family)
        except ValueError as error:
            raise UnknownFamilyError(str(error)) from None
        nodes = self.nodes
        if not isinstance(nodes, (list, tuple)) or not nodes:
            raise InvalidParameterError(
                f"nodes must be a non-empty list of node counts, got {nodes!r}"
            )
        nodes = tuple(_require_int("nodes entry", n) for n in nodes)
        if any(n < 1 for n in nodes):
            raise InvalidParameterError(f"node counts must be >= 1, got {list(nodes)}")
        if isinstance(self.trials, (list, tuple)):
            trials = tuple(_require_int("trials entry", t) for t in self.trials)
            if len(trials) != len(nodes):
                raise InvalidParameterError(
                    f"a per-point trials list needs one count per node count: "
                    f"got {len(trials)} counts for {len(nodes)} points"
                )
            if any(t < 1 for t in trials):
                raise InvalidParameterError(
                    f"trial counts must be >= 1, got {list(trials)}"
                )
            self._set(trials=trials, seed=_require_int("seed", self.seed))
        else:
            self._normalize_trials_seed()
        if self.stopping is not None:
            if isinstance(self.stopping, Mapping):
                try:
                    rule = StoppingRule.from_dict(dict(self.stopping))
                except ValueError as error:
                    raise InvalidParameterError(
                        f"invalid stopping rule: {error}"
                    ) from None
            elif isinstance(self.stopping, StoppingRule):
                rule = self.stopping
            else:
                raise InvalidParameterError(
                    f"stopping must be a StoppingRule or mapping, "
                    f"got {type(self.stopping).__name__}"
                )
            self._set(stopping=rule)
        self._normalize_sources()
        self._set(
            nodes=nodes,
            params=_canonical_params(
                self.params, SWEEP_FAMILY_DEFAULTS[self.family], self.family
            ),
        )

    def _normalize_experiment(self) -> None:
        self._forbid(
            "family", "nodes", "trials", "sources", "num_sources", "params", "stopping"
        )
        if not self.experiment_id:
            raise SchemaError("an experiment request needs an experiment_id")
        if self.experiment_id not in EXPERIMENT_IDS:
            raise UnknownExperimentError(
                f"unknown experiment {self.experiment_id!r}; "
                f"known ids: {', '.join(EXPERIMENT_IDS)}"
            )
        if self.scale not in SCALES:
            raise InvalidParameterError(
                f"scale must be one of {SCALES}, got {self.scale!r}"
            )
        self._set(seed=_require_int("seed", self.seed))

    def _normalize_flood(self) -> None:
        self._forbid("experiment_id", "nodes", "stopping")
        if not self.family:
            raise SchemaError("a flood request needs a family")
        if self.family not in FLOOD_FAMILY_DEFAULTS:
            raise UnknownFamilyError(
                f"unknown flood family {self.family!r}; known families: "
                f"{', '.join(sorted(FLOOD_FAMILY_DEFAULTS))}"
            )
        self._normalize_trials_seed()
        self._normalize_sources()
        self._set(
            params=_canonical_params(
                self.params, FLOOD_FAMILY_DEFAULTS[self.family], self.family
            )
        )

    # -------------------------------------------------------------- #
    # serialization
    # -------------------------------------------------------------- #
    def as_dict(self) -> dict:
        """The canonical JSON-able payload (round-trips via :meth:`from_dict`)."""
        payload: dict = {"schema": SCHEMA_VERSION, "kind": self.kind}
        if self.kind == "experiment":
            payload.update(
                experiment_id=self.experiment_id, scale=self.scale, seed=self.seed
            )
            return payload
        trials = list(self.trials) if isinstance(self.trials, tuple) else self.trials
        payload.update(
            family=self.family, trials=trials, seed=self.seed,
            params=dict(self.params),
        )
        if self.kind == "sweep":
            payload["nodes"] = list(self.nodes)
        if self.sources is not None:
            payload["sources"] = self.sources
        if self.num_sources is not None:
            payload["num_sources"] = self.num_sources
        if self.stopping is not None:
            payload["stopping"] = self.stopping.as_dict()
        return payload

    def to_json(self) -> str:
        """Compact canonical JSON (stable across processes and machines)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: object) -> "WorkRequest":
        """Parse and validate a request payload (strict: unknown keys fail)."""
        if not isinstance(payload, Mapping):
            raise SchemaError(
                f"a work request must be a JSON object, got {type(payload).__name__}"
            )
        data = dict(payload)
        schema = data.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported request schema {schema!r} "
                f"(this build speaks schema {SCHEMA_VERSION})"
            )
        kind = data.pop("kind", None)
        if kind not in REQUEST_KINDS:
            raise SchemaError(
                f"request kind must be one of {REQUEST_KINDS}, got {kind!r}"
            )
        unknown = set(data) - set(_KIND_FIELDS[kind])
        if unknown:
            raise SchemaError(
                f"unknown {kind} request field(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(_KIND_FIELDS[kind])}"
            )
        return cls(kind=kind, **data)

    @classmethod
    def from_json(cls, text: str) -> "WorkRequest":
        """Parse a serialized request (the HTTP body / spool descriptor form)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SchemaError(f"request is not valid JSON: {error}") from None
        return cls.from_dict(payload)


def sweep_request(
    family: str,
    nodes: Sequence[int],
    trials: object,
    seed: int = 0,
    sources: Optional[str] = None,
    num_sources: Optional[int] = None,
    params: Optional[Mapping] = None,
    stopping: Optional[object] = None,
) -> WorkRequest:
    """A node-count sweep request (the ``repro sweep`` workload).

    ``trials`` is one count for all points or a per-point sequence;
    ``stopping`` (a :class:`~repro.stats.sequential.StoppingRule` or its
    mapping form) makes the sweep adaptive with ``trials`` as the budget.
    """
    if isinstance(trials, (list, tuple)):
        trials = tuple(trials)
    return WorkRequest(
        kind="sweep", family=family, nodes=tuple(nodes), trials=trials, seed=seed,
        sources=sources, num_sources=num_sources, params=dict(params or {}),
        stopping=stopping,
    )


def experiment_request(
    experiment_id: str, scale: str = "small", seed: int = 0
) -> WorkRequest:
    """A registered-experiment request (the ``repro experiment`` workload)."""
    return WorkRequest(kind="experiment", experiment_id=experiment_id, scale=scale, seed=seed)


def flood_request(
    family: str,
    trials: int,
    seed: int = 0,
    sources: Optional[str] = None,
    num_sources: Optional[int] = None,
    params: Optional[Mapping] = None,
) -> WorkRequest:
    """A single-model flooding request (the ``repro flood`` workload)."""
    return WorkRequest(
        kind="flood", family=family, trials=trials, seed=seed,
        sources=sources, num_sources=num_sources, params=dict(params or {}),
    )


@dataclass(frozen=True)
class CompiledPlan:
    """A compiled request: its jobs and store keys, and how to run and read them.

    Every door (the CLI, the fleet worker and coordinator, ``repro serve``)
    compiles a request once and then calls :meth:`run` or :meth:`records`;
    the shard rule and the store read-back are written only here.

    Attributes
    ----------
    request:
        The compiled :class:`WorkRequest`.
    jobs:
        The tagged engine workloads, in deterministic order.
    shard_mode:
        ``"trials"`` — shard ``i/K`` runs trials ``i, i+K, ...`` of *every*
        job (sweeps and floods); ``"jobs"`` — shard ``i/K`` runs whole jobs
        ``i, i+K, ...`` of the list (experiments, whose per-job trial counts
        differ).
    assemble:
        ``{job tag: store record} -> result payload`` — pure given the
        request, so assembly from a warm store is byte-identical to
        assembly right after execution.
    """

    request: WorkRequest
    jobs: tuple[ExperimentJob, ...]
    shard_mode: str
    assemble: Callable[[Mapping[str, dict]], dict]

    @cached_property
    def store_keys(self) -> list[str]:
        """Every job's expected parent-batch store key, in job order.

        Derived once per plan: the ETag, the warm-store lookup and a poll's
        re-assembly all read this one list.
        """
        return [job.store_key() for job in self.jobs]

    def run(
        self, engine: Engine, shard: Optional[tuple[int, int]] = None
    ) -> dict[str, BatchResult]:
        """Execute the plan, or shard ``(i, K)`` of it, through ``engine``.

        A sharded run touches the engine's store first, so a shard that owns
        no work still leaves a mergeable (empty) store file behind.
        """
        if shard is not None:
            index, count = shard
            if not 0 <= index < count:
                raise ValueError(f"shard index must lie in [0, {count}), got {index}")
            if engine.store is not None:
                engine.store.touch()
        if self.shard_mode == "trials":
            batches = engine.run_many([job.spec for job in self.jobs], shard=shard)
            return {job.tag: batch for job, batch in zip(self.jobs, batches)}
        request = self.request
        with telemetry.span(
            "experiment.plan",
            experiment=request.experiment_id,
            scale=request.scale,
            shard=None if shard is None else f"{index}/{count}",
        ) as plan_span:
            jobs = self.jobs if shard is None else self.jobs[index::count]
            batches = {job.tag: engine.run(job.spec) for job in jobs}
            plan_span.add(jobs=len(batches))
            return batches

    def records(self, store: ResultStore) -> dict[str, dict]:
        """``{job tag: record}`` read back from ``store``, executing nothing.

        Raises :class:`~repro.experiments.pipeline.MissingRecordError`
        naming the first job without a record (a shard that never ran or
        never merged).
        """
        records = {}
        for job, key in zip(self.jobs, self.store_keys):
            record = store.get(key)
            if record is None:
                request = self.request
                if request.kind == "experiment":
                    subject = (
                        f"{request.experiment_id} (scale={request.scale}, "
                        f"seed={request.seed})"
                    )
                else:
                    subject = f"the {request.family} {request.kind} (seed={request.seed})"
                raise MissingRecordError(
                    f"store {store.path} holds no record for job {job.tag!r} of "
                    f"{subject}; run or merge the shard owning that job first"
                )
            records[job.tag] = record
        return records

    def shard_keys(self, index: int, count: int) -> list[str]:
        """The keys shard ``index`` of ``count`` writes into its own store."""
        if self.shard_mode == "jobs":
            return self.store_keys[index::count]
        # A stopping-rule request only ships as the trivial 1-way shard, and
        # the engine stores it under the parent batch key (no shard wrapper).
        if self.request.stopping is not None:
            return self.store_keys
        return [shard_store_key(key, index, count) for key in self.store_keys]


def _flood_model(family: str, params: Mapping):
    """The built model of a flood request (parameters already canonical)."""
    try:
        if family == "edge-meg":
            from repro.meg.edge_meg import EdgeMEG

            return EdgeMEG(params["nodes"], p=params["p"], q=params["q"])
        if family == "waypoint":
            from repro.mobility.random_waypoint import RandomWaypoint

            return RandomWaypoint(
                params["nodes"], side=params["side"], radius=params["radius"],
                v_min=params["speed"],
            )
        from repro.graphs.grid import augmented_grid_graph
        from repro.mobility.random_path import GraphRandomWalkMobility

        graph = augmented_grid_graph(params["grid_side"], params["augment_k"])
        return GraphRandomWalkMobility(params["nodes"], graph, holding_probability=0.5)
    except ValueError as error:
        raise InvalidParameterError(f"{family} model rejected its parameters: {error}") from None


def _compile_sweep(request: WorkRequest) -> CompiledPlan:
    trials = (
        list(request.trials) if isinstance(request.trials, tuple) else request.trials
    )
    specs = sweep_trial_specs(
        resolve_family(request.family),
        list(request.nodes),
        trials,
        sources=request.sources,
        num_sources=request.num_sources,
        rng=request.seed,
        factory_kwargs=dict(request.params),
        stopping=request.stopping,
    )
    jobs = tuple(
        ExperimentJob(tag=f"n={nodes}", spec=spec)
        for nodes, spec in zip(request.nodes, specs)
    )

    def assemble(records: Mapping[str, dict]) -> dict:
        measurements = [
            measurement_from_record(job.spec, records[job.tag]) for job in jobs
        ]
        payload = {
            "kind": "sweep",
            "family": request.family,
            "nodes": list(request.nodes),
            "trials": trials,
            "seed": request.seed,
            "estimator": estimator_description(request.sources, request.num_sources),
            "params": dict(request.params),
            "measurements": sweep_as_dicts(measurements),
        }
        # Adaptive-only key: fixed-count payloads keep their exact shape.
        if request.stopping is not None:
            payload["stopping"] = request.stopping.as_dict()
        return payload

    return CompiledPlan(request=request, jobs=jobs, shard_mode="trials", assemble=assemble)


def _compile_experiment(request: WorkRequest) -> CompiledPlan:
    # Imported lazily: the registry loads the whole model zoo.
    from repro.experiments.registry import get_experiment

    plan = get_experiment(request.experiment_id).planner(request.scale, request.seed)

    def assemble(records: Mapping[str, dict]) -> dict:
        samples = {
            job.tag: list(map(int, records[job.tag]["flooding_times"]))
            for job in plan.jobs
        }
        report = plan.assemble(samples)
        return {
            "kind": "experiment",
            "scale": request.scale,
            "seed": request.seed,
            "report": report.as_dict(),
        }

    return CompiledPlan(request=request, jobs=plan.jobs, shard_mode="jobs", assemble=assemble)


def _compile_flood(request: WorkRequest) -> CompiledPlan:
    model = _flood_model(request.family, request.params)
    spec = TrialSpec.from_model(
        model,
        num_trials=request.trials,
        sources=request.sources,
        num_sources=request.num_sources,
        seed=request.seed,
        label=f"flood[{request.family}]",
    )
    jobs = (ExperimentJob(tag="flood", spec=spec),)

    def assemble(records: Mapping[str, dict]) -> dict:
        samples = list(map(int, records["flood"]["flooding_times"]))
        return {
            "kind": "flood",
            "family": request.family,
            "params": dict(request.params),
            "trials": request.trials,
            "seed": request.seed,
            "estimator": estimator_description(request.sources, request.num_sources),
            "samples": samples,
            "summary": summarize(samples).as_dict(),
        }

    return CompiledPlan(request=request, jobs=jobs, shard_mode="trials", assemble=assemble)


def compile_request(request: WorkRequest) -> CompiledPlan:
    """Compile a validated request into its engine plan.

    The single compilation seam: the CLI, the fleet job executor and the
    ``repro serve`` boundary all obtain their specs, store keys and result
    payloads from here, so identical requests produce identical
    content-addressed keys whoever asks.
    """
    if not isinstance(request, WorkRequest):
        raise SchemaError(
            f"compile_request needs a WorkRequest, got {type(request).__name__}"
        )
    return {
        "sweep": _compile_sweep,
        "experiment": _compile_experiment,
        "flood": _compile_flood,
    }[request.kind](request)

