"""Generic sweep machinery for the experiments.

Every registered experiment follows the same pattern: build a dynamic-graph
model for each point of a parameter sweep, measure its flooding time over
several independent trials, and report the summary next to the relevant bound
formula.  :func:`measure_flooding_sweep` factors out that loop and routes all
trial execution through the :class:`repro.engine.Engine`, so sweeps pick up
worker pools, the vectorized kernel and persistent result caching for free.
Sweep points may carry per-point trial budgets (variance-aware fleet sizing)
and a sequential :class:`~repro.stats.sequential.StoppingRule`; fixed-count
sweeps produce byte-identical output to what they produced before either
feature existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.engine import BatchResult, Engine, TrialSpec
from repro.meg.base import DynamicGraph
from repro.stats.sequential import StoppingRule
from repro.util.rng import RNGLike, spawn_seed_sequences
from repro.util.stats import TrialSummary, summarize_with_whp


@dataclass(frozen=True)
class SweepMeasurement:
    """Flooding-time measurement at one sweep point."""

    parameter: object
    num_nodes: int
    summary: TrialSummary
    whp_value: float
    samples: tuple[int, ...] = ()
    from_cache: bool = False
    stopped_early: bool = False

    @property
    def mean(self) -> float:
        """Mean flooding time across the trials."""
        return self.summary.mean

    @property
    def median(self) -> float:
        """Median flooding time across the trials."""
        return self.summary.median

    def as_dict(self) -> dict:
        """Plain-dict form (what the CLI's ``--json`` output emits).

        ``stopped_early`` is emitted only when true, so fixed-count sweeps
        keep the exact JSON shape they had before adaptive sampling existed.
        """
        payload = {
            "parameter": self.parameter,
            "num_nodes": self.num_nodes,
            "summary": self.summary.as_dict(),
            "whp_value": self.whp_value,
            "samples": list(self.samples),
            "from_cache": self.from_cache,
        }
        if self.stopped_early:
            payload["stopped_early"] = True
        return payload


def sweep_trial_specs(
    model_factory: Callable[[object], DynamicGraph],
    parameter_values: Sequence,
    num_trials: Union[int, Sequence[int]],
    source: int = 0,
    sources: Optional[object] = None,
    num_sources: Optional[int] = None,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    factory_kwargs: Optional[dict] = None,
    stopping: Optional[StoppingRule] = None,
) -> list[TrialSpec]:
    """The :class:`TrialSpec` batch of one sweep, one spec per sweep point.

    This is the single place sweep specs are constructed: the sweep runner
    below and the fleet worker (:mod:`repro.fleet.worker`) both call it, so a
    fleet job descriptor that names the same family, points, trial count and
    seed material reproduces exactly the specs — and therefore exactly the
    per-trial ``SeedSequence`` children and store keys — of a local run.

    ``num_trials`` is one count for every point, or a per-point sequence of
    counts (how the fleet's variance-aware pilot sizes noisy points; see
    :func:`repro.fleet.coordinator.plan_variance_budgets`).  Because each
    point's trial seeds are ``SeedSequence`` children of that point's own
    child sequence, trials at one point are a *prefix-stable* stream: budget
    changes at one point never reseed any other point, and a smaller budget
    runs an exact prefix of a larger one.  ``stopping`` attaches a sequential
    stopping rule to every point (``num_trials`` then caps the budget).
    """
    values = list(parameter_values)
    if not values:
        raise ValueError("the sweep needs at least one parameter value")
    if isinstance(num_trials, int):
        per_point = [num_trials] * len(values)
    else:
        per_point = [int(count) for count in num_trials]
        if len(per_point) != len(values):
            raise ValueError(
                f"num_trials lists one count per sweep point: got {len(per_point)} "
                f"counts for {len(values)} points"
            )
    if min(per_point) < 1:
        raise ValueError(f"num_trials must be >= 1, got {min(per_point)}")
    return [
        TrialSpec(
            factory=model_factory,
            args=(value,),
            kwargs=dict(factory_kwargs) if factory_kwargs else {},
            num_trials=count,
            source=source,
            sources=sources,
            num_sources=num_sources,
            max_steps=max_steps,
            seed=seed,
            stopping=stopping,
            label=f"sweep[{value!r}]",
        )
        for value, count, seed in zip(
            values, per_point, spawn_seed_sequences(rng, len(values))
        )
    ]


def measurement_from_batch(spec: TrialSpec, batch: BatchResult) -> SweepMeasurement:
    """A sweep point's measurement from the batch the engine returned for it."""
    samples = list(batch.flooding_times)
    summary, whp_value = summarize_with_whp(samples, batch.num_nodes)
    return SweepMeasurement(
        parameter=spec.args[0],
        num_nodes=batch.num_nodes,
        summary=summary,
        whp_value=whp_value,
        samples=tuple(samples),
        from_cache=batch.from_cache,
        stopped_early=batch.stopped_early,
    )


def measurement_from_record(spec: TrialSpec, record: dict) -> SweepMeasurement:
    """A sweep point's measurement rebuilt from its stored batch record.

    ``from_cache=True``: the samples come from a result store, not
    execution.  The fleet fan-in and the ``repro serve`` warm path both
    assemble through this, so store-backed measurements are identical to
    live ones field by field.
    """
    num_nodes = int(record["num_nodes"])
    stopping = record.get("stopping") or {}
    samples = list(map(int, record["flooding_times"]))
    summary, whp_value = summarize_with_whp(samples, num_nodes)
    return SweepMeasurement(
        parameter=spec.args[0],
        num_nodes=num_nodes,
        summary=summary,
        whp_value=whp_value,
        samples=tuple(samples),
        from_cache=True,
        stopped_early=bool(stopping.get("stopped_early", False)),
    )


def measure_flooding_sweep(
    model_factory: Callable[[object], DynamicGraph],
    parameter_values: Sequence,
    num_trials: Union[int, Sequence[int]],
    source: int = 0,
    sources: Optional[object] = None,
    num_sources: Optional[int] = None,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    engine: Optional[Engine] = None,
    workers: int = 1,
    backend: str = "auto",
    shard: Optional[tuple[int, int]] = None,
    factory_kwargs: Optional[dict] = None,
    stopping: Optional[StoppingRule] = None,
) -> list[SweepMeasurement]:
    """Measure flooding times across a one-dimensional parameter sweep.

    Parameters
    ----------
    model_factory:
        Callable mapping a sweep-parameter value to a fresh dynamic graph.
        Called once per sweep point; with ``workers > 1`` the *built model*
        (not the factory) must be picklable.
    parameter_values:
        The sweep points.
    num_trials:
        Independent flooding trials per sweep point.
    source:
        Flooding source node (single-source sweeps).
    sources / num_sources:
        Optional batched-source estimator (see :class:`repro.engine.TrialSpec`):
        ``sources`` is ``"all"`` or an explicit node sequence, ``num_sources``
        samples that many distinct sources per trial; each trial then records
        the worst flooding time over the batch.
    rng:
        Seed or generator (each sweep point gets an independent child
        ``SeedSequence``).
    max_steps:
        Optional per-trial step cap forwarded to the flooding simulator.
    engine:
        An existing :class:`repro.engine.Engine` (e.g. with a result store
        attached); overrides ``workers`` and ``backend``.
    workers / backend:
        Engine configuration used when no ``engine`` is passed.
    shard:
        Optional ``(index, count)`` pair: run only shard ``index`` of
        ``count`` of every sweep point — trials ``index, index+count, ...``
        with the exact seeds the unsharded sweep would give them (see
        :class:`repro.engine.ShardSpec`).  The per-point seeds themselves
        are spawned identically whatever the shard, so ``count`` sharded
        sweeps merged through :meth:`ResultStore.merge
        <repro.engine.store.ResultStore.merge>` reproduce the unsharded
        sweep's stored results bit-for-bit.  Summaries then describe the
        shard's own samples.
    factory_kwargs:
        Extra keyword arguments passed to ``model_factory`` after the sweep
        value (kept out of the sweep parameter so the factory can stay a
        plain module-level function — picklable, with a stable cache token).
    stopping:
        Optional :class:`~repro.stats.sequential.StoppingRule` applied to
        every sweep point (``num_trials`` then caps the per-point budget).
        Incompatible with ``shard`` (the stopping decision needs the full
        sample stream; the engine enforces this).
    """
    if shard is not None:
        shard_count = int(shard[1])
        min_trials = num_trials if isinstance(num_trials, int) else min(num_trials)
        if shard_count > min_trials:
            raise ValueError(
                f"shard count ({shard_count}) exceeds num_trials ({min_trials}): "
                f"some shards would be empty"
            )
    if engine is None:
        engine = Engine(workers=workers, backend=backend)
    specs = sweep_trial_specs(
        model_factory,
        parameter_values,
        num_trials,
        source=source,
        sources=sources,
        num_sources=num_sources,
        rng=rng,
        max_steps=max_steps,
        factory_kwargs=factory_kwargs,
        stopping=stopping,
    )
    batches = engine.run_many(specs, shard=shard)
    return [measurement_from_batch(spec, batch) for spec, batch in zip(specs, batches)]


def sweep_as_dicts(measurements: Iterable[SweepMeasurement]) -> list[dict]:
    """Machine-readable form of a sweep (one dict per point)."""
    return [measurement.as_dict() for measurement in measurements]
