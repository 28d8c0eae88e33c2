"""Deterministic sharding of trial batches across independent executors.

The paper's experiments are parameter sweeps over many independent
Monte-Carlo trials — embarrassingly parallel work that one process, one
worker pool, or a fleet of CI jobs can execute interchangeably *as long as
the partition is deterministic*.  This module provides that partition:

* :class:`ShardSpec` wraps a :class:`~repro.engine.spec.TrialSpec` together
  with a shard ``index`` and shard ``count``.  Shard ``i`` of ``K`` owns
  trials ``i, i+K, i+2K, ...`` of the batch, *with the exact per-trial
  ``SeedSequence`` children the unsharded run would have used*: the executor
  spawns the full batch's seed list from the spec's seed material and selects
  the shard's stride, so every shard is bit-identical to its slice of the
  unsharded run at any worker count.
* :func:`shard_specs` fans a spec out into all ``K`` shards;
  :func:`parse_shard` reads the CLI's ``i/K`` notation.
* :func:`batch_store_key` and :func:`shard_store_key` define how results
  are addressed in the :class:`~repro.engine.store.ResultStore`: a shard
  record lives under a key derived from the *parent* batch key plus the
  shard coordinates, and carries both in its payload — which is what lets
  :meth:`ResultStore.merge <repro.engine.store.ResultStore.merge>` reassemble
  the full batch record (under the parent key, bit-identical to an unsharded
  run's record) from any complete set of shard stores.

The interleaved (strided) partition is deliberate: contiguous chunking would
also be deterministic, but striding keeps every shard statistically
representative of the whole batch, so partial fan-outs still give unbiased
summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.engine.spec import TrialSpec
from repro.engine.store import ResultStore, SeedRange
from repro.stats.sequential import sketch_salt, text_salt
from repro.util.rng import spawn_seed_sequences

#: What a batch key hashes as its ``"seeds"``: a closed-form range, or the
#: spawned children when the seed material has no closed form.
KeySeeds = Union[SeedRange, list]


def seed_token(seeds: Sequence[np.random.SeedSequence]) -> list[dict]:
    """JSON-able identity of the spawned per-trial seed sequences."""
    token = []
    for seq in seeds:
        entropy = seq.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(word) for word in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        token.append({"entropy": entropy, "spawn_key": [int(k) for k in seq.spawn_key]})
    return token


def key_seeds(spec: TrialSpec) -> KeySeeds:
    """The per-trial seeds of ``spec`` in the form its batch key hashes.

    Int and ``SeedSequence`` material gives a :class:`SeedRange` and spawns
    nothing.  ``Generator`` and ``None`` material is spawned here, once, so a
    generator's ``seed_seq`` advances exactly as one spawn advances it.
    """
    seeds = SeedRange.of(spec.seed, spec.num_trials)
    if seeds is None:
        seeds = spawn_seed_sequences(spec.seed, spec.num_trials)
    return seeds


def trial_seeds(spec: TrialSpec, seeds: KeySeeds) -> list:
    """The ``SeedSequence`` children behind ``key_seeds(spec)``."""
    if isinstance(seeds, SeedRange):
        return spawn_seed_sequences(spec.seed, spec.num_trials)
    return seeds


def batch_store_key(spec: TrialSpec, seeds: KeySeeds | None = None) -> str:
    """Content key of the *full* (unsharded) batch a spec describes.

    The same key :class:`~repro.engine.engine.Engine` uses when it runs the
    spec directly; shards reference it as their ``parent_key``.  ``seeds``
    is ``key_seeds(spec)`` when the caller already holds it (it must, for
    ``Generator`` material, or the key would spawn a second batch).
    """
    if seeds is None:
        seeds = key_seeds(spec)
    if not isinstance(seeds, SeedRange):
        seeds = seed_token(seeds)
    return ResultStore.compute_key({**spec.cache_token(), "seeds": seeds})


def batch_salt(seeds: KeySeeds) -> int:
    """Sketch salt of a batch: SHA-256 over the seeds text its key hashes."""
    if isinstance(seeds, SeedRange):
        return text_salt(seeds.text)
    return sketch_salt(seed_token(seeds))


def shard_store_key(parent_key: str, index: int, count: int) -> str:
    """Content key of one shard's partial record in the result store."""
    return ResultStore.compute_key(
        {"parent": parent_key, "shard": {"index": int(index), "count": int(count)}}
    )


@dataclass(frozen=True)
class ShardSpec:
    """Shard ``index`` of ``count`` of one trial batch.

    Attributes
    ----------
    spec:
        The full, *unsharded* batch description.  Keeping the whole spec (not
        a pre-sliced copy) is what makes the shard self-describing: the seed
        material, trial count and model identity all come from the parent
        spec, so any worker holding this object reproduces exactly its slice
        of the unsharded run.
    index / count:
        Shard coordinates; shard ``index`` owns trials
        ``index, index+count, index+2*count, ...``.
    """

    spec: TrialSpec
    index: int
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.spec, TrialSpec):
            raise TypeError(f"spec must be a TrialSpec, got {type(self.spec).__name__}")
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(f"shard index must lie in [0, {self.count}), got {self.index}")

    @property
    def trial_indices(self) -> range:
        """The (possibly empty) trial indices this shard owns."""
        return range(self.index, self.spec.num_trials, self.count)

    @property
    def num_trials(self) -> int:
        """Number of trials this shard executes."""
        return len(self.trial_indices)

    def spawn_seeds(self) -> tuple[list, list]:
        """``(all_seeds, shard_seeds)`` for the batch and this shard's slice.

        The full list is always spawned — that is the determinism contract:
        the shard's seeds are *selected from* the unsharded spawn, never
        derived independently.
        """
        all_seeds = spawn_seed_sequences(self.spec.seed, self.spec.num_trials)
        return all_seeds, [all_seeds[i] for i in self.trial_indices]

    def store_record(self, result_payload: dict, parent_key: str) -> dict:
        """The self-describing shard payload persisted to a result store."""
        return {
            **result_payload,
            "shard": {
                "index": self.index,
                "count": self.count,
                "num_trials": self.spec.num_trials,
            },
            "parent_key": parent_key,
        }


def shard_specs(spec: TrialSpec, count: int) -> list[ShardSpec]:
    """All ``count`` shards of ``spec`` (run them anywhere, merge the stores)."""
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    return [ShardSpec(spec, index, count) for index in range(count)]


def parse_shard(text: str) -> tuple[int, int]:
    """Parse the CLI's ``i/K`` shard notation into ``(index, count)``."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard must look like i/K (e.g. 0/3), got {text!r}")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"shard must look like i/K (e.g. 0/3), got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard index must lie in [0, count) with count >= 1, got {text!r}")
    return index, count
