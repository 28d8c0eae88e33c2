"""The flooding process over a dynamic graph.

Flooding with source ``s`` (Section 2 of the paper): at time 0 only ``s`` is
informed; a node ``v`` becomes informed at time ``t + 1`` exactly when the
snapshot ``E_t`` contains an edge between ``v`` and some node informed at
time ``t``.  The flooding time is ``F(G, s) = min{t : I_t = [n]}``, and the
(worst-case) flooding time of the dynamic graph is ``F(G) = max_s F(G, s)``.

Although the protocol is deterministic, the process is stochastic because the
graph is; the helpers here run a single trial, repeated trials, and the
max-over-sources estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.meg.base import DynamicGraph
from repro.util.rng import RNGLike, ensure_rng, spawn_rngs


@dataclass(frozen=True)
class FloodingResult:
    """Outcome of one flooding run.

    Attributes
    ----------
    source:
        The initially informed node.
    num_nodes:
        Number of nodes of the dynamic graph.
    informed_history:
        ``informed_history[t]`` is ``|I_t|``, the number of informed nodes at
        time ``t`` (so ``informed_history[0] == 1``).
    flooding_time:
        The first ``t`` with ``|I_t| == num_nodes``, or ``None`` if the run
        hit ``max_steps`` before completing.
    """

    source: int
    num_nodes: int
    informed_history: tuple[int, ...]
    flooding_time: Optional[int]

    @property
    def completed(self) -> bool:
        """Whether every node was informed before the step limit."""
        return self.flooding_time is not None

    @property
    def final_informed(self) -> int:
        """Number of informed nodes when the run stopped."""
        return self.informed_history[-1]

    def informed_at(self, t: int) -> int:
        """``|I_t|`` (the history is clamped at its last value for large ``t``)."""
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if t >= len(self.informed_history):
            return self.informed_history[-1]
        return self.informed_history[t]

    def time_to_fraction(self, fraction: float) -> Optional[int]:
        """First time at which at least ``fraction`` of the nodes are informed."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        threshold = fraction * self.num_nodes
        for t, count in enumerate(self.informed_history):
            if count >= threshold:
                return t
        return None


def default_max_steps(num_nodes: int) -> int:
    """Default per-trial step cap used by the flooding simulators.

    Generous: quadratic in n (with a floor), far above any bound we test.
    """
    return max(200, 20 * num_nodes * max(1, int(np.log2(max(num_nodes, 2)))))


_default_max_steps = default_max_steps


def flood(
    process: DynamicGraph,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> FloodingResult:
    """Run one flooding trial on ``process`` and return its full trajectory.

    Parameters
    ----------
    process:
        Any dynamic graph model.
    source:
        The initially informed node.
    rng:
        Seed or generator used to reset the process (ignored when ``reset`` is
        false).
    max_steps:
        Safety cap on the number of time steps (default is a generous
        super-linear function of ``n``); if reached, the result has
        ``flooding_time = None``.
    reset:
        Whether to reset the process before flooding.  Pass ``False`` to
        flood over an already-running process from its current snapshot.
    """
    n = process.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if max_steps is None:
        max_steps = _default_max_steps(n)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if reset:
        process.reset(rng)

    informed: set[int] = {source}
    history = [1]
    if n == 1:
        return FloodingResult(source, n, tuple(history), 0)

    flooding_time_value: Optional[int] = None
    for t in range(max_steps):
        newly_reached = process.neighbors_of_set(informed)
        informed |= newly_reached
        history.append(len(informed))
        process.step()
        if len(informed) == n:
            flooding_time_value = t + 1
            break
    return FloodingResult(source, n, tuple(history), flooding_time_value)


def multi_source_flood(
    process: DynamicGraph,
    sources: Sequence[int],
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> FloodingResult:
    """Flooding started from several sources simultaneously.

    The paper analyses single-source flooding, but the same process with
    ``|S|`` initially informed nodes is exactly the tail of a single-source
    run that has already informed ``S``; multi-source runs are useful for
    studying the saturation phase (Lemma 14) in isolation and for modelling
    scenarios where several replicas of the information are injected at once.

    The returned result reports the smallest source index in its ``source``
    field and starts its history at ``|S|``.
    """
    source_list = sorted(set(int(s) for s in sources))
    if not source_list:
        raise ValueError("at least one source is required")
    n = process.num_nodes
    for source in source_list:
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for {n} nodes")
    if max_steps is None:
        max_steps = _default_max_steps(n)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if reset:
        process.reset(rng)

    informed: set[int] = set(source_list)
    history = [len(informed)]
    if len(informed) == n:
        return FloodingResult(source_list[0], n, tuple(history), 0)

    flooding_time_value: Optional[int] = None
    for t in range(max_steps):
        informed |= process.neighbors_of_set(informed)
        history.append(len(informed))
        process.step()
        if len(informed) == n:
            flooding_time_value = t + 1
            break
    return FloodingResult(source_list[0], n, tuple(history), flooding_time_value)


def flood_sources_set(
    process: DynamicGraph,
    sources: Sequence[int],
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> list[Optional[int]]:
    """Set-based reference for :func:`repro.engine.kernel.flood_sources_batch`.

    Floods from every source in ``sources`` over *one shared realization* of
    the dynamic graph, advancing one Python informed-set per source, and
    returns the per-source flooding times in input order (``None`` for floods
    that hit the step cap).  Exactly the same estimator as the batch kernels,
    at set-based-loop speed — the cross-backend parity baseline.
    """
    source_list = [int(s) for s in sources]
    if not source_list:
        raise ValueError("at least one source is required")
    n = process.num_nodes
    for source in source_list:
        if not 0 <= source < n:
            raise ValueError(f"sources out of range for {n} nodes")
    if max_steps is None:
        max_steps = _default_max_steps(n)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if reset:
        process.reset(rng)

    batch = len(source_list)
    if n == 1:
        return [0] * batch

    informed_sets: list[set[int]] = [{source} for source in source_list]
    times: list[Optional[int]] = [None] * batch
    for t in range(max_steps):
        for index in range(batch):
            if times[index] is None:
                informed_sets[index] |= process.neighbors_of_set(informed_sets[index])
        process.step()
        for index in range(batch):
            if times[index] is None and len(informed_sets[index]) == n:
                times[index] = t + 1
        if all(time is not None for time in times):
            break
    return times


def batch_source_flooding_times(
    process: DynamicGraph,
    sources: object = "all",
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
) -> list[int]:
    """Flooding time from every source of a batch over one shared realization.

    ``sources`` is ``"all"`` (every node — the exhaustive per-realization
    worst-case estimator), an integer ``k`` (that many distinct sources
    sampled uniformly from ``rng``), or an explicit sequence of node indices.
    The whole batch is flooded in one vectorized pass (dense or sparse
    according to ``backend``); raises if any source hits the step cap.
    ``chunk_size`` bounds the sources advanced per pass: the realization is
    recorded once and replayed for later chunks (identical results, memory
    capped at an ``n x chunk_size`` informed matrix).
    """
    # Imported here: repro.engine builds on this module (no import cycle).
    from repro.engine.engine import run_source_batch

    generator = ensure_rng(rng)
    n = process.num_nodes
    if isinstance(sources, str):
        if sources != "all":
            raise ValueError(f"sources must be 'all', a count or a sequence, got {sources!r}")
        source_list = list(range(n))
    elif isinstance(sources, (int, np.integer)):
        if sources < 1:
            raise ValueError(f"the source sample size must be >= 1, got {sources}")
        if sources > n:
            raise ValueError(
                f"the source sample size ({sources}) exceeds the model's {n} nodes"
            )
        chosen = generator.choice(n, size=int(sources), replace=False)
        source_list = [int(s) for s in chosen]
    else:
        source_list = [int(s) for s in sources]
    return run_source_batch(
        process, source_list, generator, max_steps, backend, chunk_size
    )


def batched_flooding_time_samples(
    process: DynamicGraph,
    num_trials: int,
    sources: object = "all",
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    workers: int = 1,
    backend: str = "auto",
    engine=None,
) -> list[int]:
    """Worst-case-over-sources flooding times of ``num_trials`` realizations.

    Each trial draws an independent realization, floods a whole source batch
    over it in one vectorized pass, and records the *largest* flooding time
    of the batch — the batched estimator of ``F(G) = max_s F(G, s)``.
    ``sources`` is ``"all"``, an integer ``k`` (distinct sources re-sampled
    per trial from the trial's own seed stream) or an explicit sequence.

    Execution routes through :class:`repro.engine.Engine` exactly like
    :func:`flooding_time_samples`, so worker pools, kernel selection and the
    persistent result store all apply; samples are bit-identical at any
    worker count.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    # Imported here: repro.engine builds on this module (no import cycle).
    from repro.engine import Engine, TrialSpec

    if engine is None:
        engine = Engine(workers=workers, backend=backend)
    if isinstance(sources, (int, np.integer)):
        spec_sources, spec_num_sources = None, int(sources)
    else:
        spec_sources, spec_num_sources = sources, None
    spec = TrialSpec.from_model(
        process,
        num_trials=num_trials,
        sources=spec_sources,
        num_sources=spec_num_sources,
        max_steps=max_steps,
        seed=rng,
    )
    return list(engine.run(spec).flooding_times)


def flooding_time(
    process: DynamicGraph,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
) -> int:
    """Flooding time of a single trial; raises if the cap is hit first."""
    result = flood(process, source=source, rng=rng, max_steps=max_steps)
    if result.flooding_time is None:
        raise RuntimeError(
            f"flooding did not complete within the step limit "
            f"({result.final_informed}/{result.num_nodes} nodes informed)"
        )
    return result.flooding_time


def flooding_time_samples(
    process: DynamicGraph,
    num_trials: int,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    workers: int = 1,
    backend: str = "auto",
    engine=None,
) -> list[int]:
    """Flooding times of ``num_trials`` independent trials (same source).

    Each trial resets the process with an independent ``SeedSequence`` child
    derived from ``rng``, so the whole experiment is reproducible from one
    seed — and bit-identical at any ``workers`` count, since the execution is
    routed through :class:`repro.engine.Engine`.

    Parameters
    ----------
    workers:
        Worker processes to fan the trials out to (1 = in-process).
    backend:
        Flooding kernel: ``"auto"`` (vectorized when the model exposes a fast
        adjacency matrix), ``"set"`` or ``"vectorized"``.
    engine:
        An existing :class:`repro.engine.Engine` (e.g. one with a result
        store attached); overrides ``workers`` and ``backend``.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    # Imported here: repro.engine builds on this module (no import cycle).
    from repro.engine import Engine, TrialSpec

    if engine is None:
        engine = Engine(workers=workers, backend=backend)
    spec = TrialSpec.from_model(
        process, num_trials=num_trials, source=source, max_steps=max_steps, seed=rng
    )
    return list(engine.run(spec).flooding_times)


def worst_case_flooding_time(
    process: DynamicGraph,
    sources: Optional[Sequence[int]] = None,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
) -> int:
    """Estimate ``F(G) = max_s F(G, s)`` by flooding from several sources.

    By default every node is tried once; pass ``sources`` to restrict to a
    subset (e.g. a random sample) for large graphs.
    """
    n = process.num_nodes
    if sources is None:
        sources = range(n)
    sources = list(sources)
    if not sources:
        raise ValueError("at least one source is required")
    generators = spawn_rngs(rng, len(sources))
    worst = 0
    for source, generator in zip(sources, generators):
        worst = max(
            worst,
            flooding_time(process, source=source, rng=generator, max_steps=max_steps),
        )
    return worst


def informed_fraction_curve(
    process: DynamicGraph,
    num_trials: int,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
) -> np.ndarray:
    """Average fraction of informed nodes as a function of time.

    Runs ``num_trials`` floods and averages the (right-padded) informed-count
    trajectories; useful for plotting the two phases (spreading up to ``n/2``,
    then saturation) that the proof of Theorem 1 distinguishes.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    generators = spawn_rngs(rng, num_trials)
    histories = []
    for generator in generators:
        result = flood(process, source=source, rng=generator, max_steps=max_steps)
        histories.append(result.informed_history)
    longest = max(len(h) for h in histories)
    n = process.num_nodes
    padded = np.zeros((len(histories), longest))
    for row, history in enumerate(histories):
        padded[row, : len(history)] = history
        padded[row, len(history) :] = history[-1]
    return padded.mean(axis=0) / n
