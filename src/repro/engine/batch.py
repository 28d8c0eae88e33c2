"""Realization-batched flooding: many trials of one family in one tensor pass.

The engine's per-trial kernels pay Python-level dispatch (reset, one reach
and one step call per round) for every trial.  When a batch floods hundreds
of small realizations of the *same* family, that dispatch dominates the
round's NumPy work.  :func:`flood_trials_batch` amortizes it: the informed
sets of ``B`` independent trials form the rows of a ``B x n`` boolean matrix
and each round advances every still-running trial at once.

Exactness is the whole point: trial ``b`` consumes the random stream of
``np.random.default_rng(seeds[b])`` exactly as a solo
:func:`~repro.engine.kernel.flood_vectorized` run would, so the returned
:class:`~repro.core.flooding.FloodingResult` objects are bit-identical to
per-trial execution.  The model supplies the runner through
:meth:`~repro.meg.base.DynamicGraph.trial_batch`: it keeps all ``B``
realizations in stacked state arrays and mirrors the per-trial draws with
batched equivalents (the node-MEG runner lives in :mod:`repro.meg.node_meg`).
Models without a runner are flooded per trial; the engine resolves
``backend="batch"`` to the vectorized kernel for them.

Over-drawing note: a runner may draw uniforms a few rounds ahead of a
trial's completion (the node-MEG runner pre-draws fixed windows of rounds to
amortize generator dispatch).  This never changes results — each trial's
generator is private to the trial and discarded afterwards, and the values a
finished trial never uses are never observable.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.flooding import FloodingResult, prepare_flood
from repro.meg.base import DynamicGraph
from repro.telemetry import core as telemetry

__all__ = ["flood_trials_batch"]


def flood_trials_batch(
    process: DynamicGraph,
    seeds: Sequence,
    source: int = 0,
    max_steps: Optional[int] = None,
) -> list[FloodingResult]:
    """Flood one independent trial per seed, all advanced in lock-step.

    Equivalent to ``[flood_vectorized(process, source=source,
    rng=np.random.default_rng(seed)) for seed in seeds]`` — same flooding
    times, same informed-count histories — but every round advances all
    still-running trials together.  ``process`` must provide a
    :meth:`~repro.meg.base.DynamicGraph.trial_batch` runner (a
    :class:`ValueError` otherwise) and is never mutated itself.

    Each seed is passed to ``np.random.default_rng``, so anything that
    function accepts (ints, ``SeedSequence`` objects, ``None``) works.
    """
    # The runner resets its own stacked realizations; ``process`` is never reset.
    max_steps = prepare_flood(process, [source], None, max_steps, reset=False)
    n = process.num_nodes
    seeds = list(seeds)
    batch = len(seeds)
    if batch == 0:
        return []

    runner = process.trial_batch(batch)
    if runner is None:
        raise ValueError(
            f"{type(process).__name__} has no trial_batch runner; "
            f"flood its trials one at a time"
        )
    rngs = [np.random.default_rng(seed) for seed in seeds]
    runner.reset(rngs)

    if n == 1:
        return [FloodingResult(source, n, (1,), 0) for _ in range(batch)]

    informed = np.zeros((batch, n), dtype=bool)
    informed[:, source] = True
    histories: list[list[int]] = [[1] for _ in range(batch)]
    times: list[Optional[int]] = [None] * batch
    active = np.arange(batch)
    for t in range(max_steps):
        sub = active
        informed[sub] |= runner.reach(informed, sub)
        counts = informed[sub].sum(axis=1)
        for position, trial in enumerate(sub):
            histories[trial].append(int(counts[position]))
        # Per-trial kernels step the model even on the completing round (then
        # break), so the batched step covers just-completed trials too.
        runner.step(sub, t)
        done = counts == n
        for trial in sub[done]:
            times[int(trial)] = t + 1
        active = sub[~done]
        if active.size == 0:
            break

    tel = telemetry.active()
    if tel is not None:
        tel.count("kernel.flood.batch_trials", batch)
        tel.timing("kernel.batch_width", batch)
        finished = [t for t in times if t is not None]
        if finished:
            tel.timing("kernel.rounds", max(finished))
    return [
        FloodingResult(source, n, tuple(histories[trial]), times[trial])
        for trial in range(batch)
    ]
