"""The plans the registered experiments (E1-E10) compile into.

A registered experiment is *compiled* into an :class:`ExperimentPlan`: a
batch of tagged, declarative :class:`~repro.engine.TrialSpec` jobs plus a
pure assembly function from per-job samples to the
:class:`~repro.experiments.report.ExperimentReport`.  The request facade
wraps that plan in a :class:`repro.api.CompiledPlan`, which runs it through
:class:`~repro.engine.Engine` (worker pools, kernel selection, result-store
caching), shards it and reads it back from a store exactly as it does every
sweep and flood.

* **Determinism** — every job's seed is an explicitly reconstructed
  ``SeedSequence`` child (:func:`experiment_seed_sequence`), the exact child
  the registry's pre-pipeline code obtained through ``spawn_rngs``, so the
  assembled report is bit-identical to the historical direct-call numbers
  (pinned by the golden-value regression tests).
* **Sharding** — shard ``i`` of ``K`` runs jobs ``i, i+K, i+2K, ...`` of the
  plan, each as a *full* batch record in the store.  ``K`` shard stores
  merged with :meth:`ResultStore.merge
  <repro.engine.store.ResultStore.merge>` are byte-identical to the store an
  unsharded run writes, and the report assembles from the merged store
  without re-running anything.
* **Resume / replay** — a partial run resumes from whatever records the
  attached store already holds (the engine serves them as cache hits), and a
  re-run against a warm store executes zero trials.

Experiment assembly functions consume the *full* per-trial sample arrays.
Stopping rules are a sweep-only feature: experiment jobs always run their
declared fixed trial counts so the golden-value regressions stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.engine import TrialSpec, batch_store_key
from repro.experiments.report import ExperimentReport

#: The recognised experiment scales (seconds-fast vs. minutes-thorough).
SCALES = ("small", "full")


class MissingRecordError(LookupError):
    """A store read-back found no record for one of a plan's jobs."""


def experiment_seed_sequence(seed: int, *spawn_key: int) -> np.random.SeedSequence:
    """The ``SeedSequence`` child at ``spawn_key`` under ``SeedSequence(seed)``.

    Spawning is purely functional on fresh parents — the child at path
    ``(i, j)`` equals ``SeedSequence(seed).spawn(...)[i].spawn(...)[j]`` — so
    planners reconstruct the exact children the registry's pre-pipeline
    code obtained through ``spawn_rngs`` without sharing mutable spawn state
    between compilation, execution and assembly.
    """
    return np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(k) for k in spawn_key)
    )


def advanced_rng(
    seed: int, spawn_key: Sequence[int], children_spawned: int
) -> np.random.Generator:
    """Generator over a child whose spawn counter already sits at ``children_spawned``.

    Reproduces the generator state the pre-pipeline registry code reached
    after spawning ``children_spawned`` per-trial seeds from a child (E6 does
    this: the flooding trials consume the first children of each per-``k``
    stream, the meeting-time estimator the next ones).
    """
    sequence = np.random.SeedSequence(
        entropy=int(seed),
        spawn_key=tuple(int(k) for k in spawn_key),
        n_children_spawned=int(children_spawned),
    )
    return np.random.default_rng(sequence)


@dataclass(frozen=True)
class ExperimentJob:
    """One uniquely tagged trial batch of a compiled plan.

    The job type of every :class:`repro.api.CompiledPlan` (experiment, sweep
    or flood), kept at this layer because :class:`ExperimentPlan` holds it.
    """

    tag: str
    spec: TrialSpec

    def store_key(self) -> str:
        """Content key of this job's batch record in a result store."""
        return batch_store_key(self.spec)


@dataclass(frozen=True)
class ExperimentPlan:
    """A compiled experiment: declarative jobs plus a pure assembly function.

    What a planner ``(scale, seed) -> ExperimentPlan`` returns; the
    experiment id, scale and seed it was built from travel on the
    compiled :class:`repro.api.WorkRequest`, not here.  Building again from
    the same inputs yields an equivalent plan (same specs, same store keys).

    Attributes
    ----------
    jobs:
        The engine workloads, in deterministic order.  Sharding partitions
        this tuple by stride.
    assemble:
        Maps ``{job tag: flooding-time samples}`` to the final
        :class:`~repro.experiments.report.ExperimentReport`.  Pure given the
        planner's inputs: bounds, mixing times and the non-engine
        Monte-Carlo quantities are derived deterministically from
        ``(scale, seed)``, so assembly from live results and assembly from
        store records produce identical reports.
    """

    jobs: tuple[ExperimentJob, ...]
    assemble: Callable[[Mapping[str, Sequence[int]]], ExperimentReport]

    def __post_init__(self) -> None:
        tags = [job.tag for job in self.jobs]
        if len(set(tags)) != len(tags):
            raise ValueError(f"job tags must be unique, got {tags}")
