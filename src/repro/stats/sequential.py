"""Online moments, the adaptive-record sketch and sequential stopping rules.

Three cooperating pieces (see ``docs/statistics.md`` for the error bounds
and the bit-identity contract in full):

* :class:`MomentSketch` — a streaming moment accumulator (count, mean,
  variance, min, max) updated with Welford's algorithm.  Integer-valued
  streams — the flooding times — additionally carry *exact*
  arbitrary-precision integer sums, so their means/variances are computed
  from exact sums and do not depend on how the stream was chunked.
* :func:`sketch_from_samples` — the ``"sketch"`` payload an adaptive batch
  record embeds: the exact moments plus a deterministic bottom-``k``
  reservoir.  Every trial index gets a 64-bit priority from a seed-derived
  stream (:func:`sketch_salt` + ``splitmix64``) and the reservoir keeps the
  ``capacity`` smallest priorities, so the kept values are a uniform sample
  without replacement and a stream that fits within ``capacity`` is kept
  whole.
* :class:`StoppingRule` — the sequential-sampling policy the engine
  evaluates between trial chunks: stop once the normal-approximation
  confidence interval around the running mean is narrower than a target
  half-width (absolute or relative), bounded by min/max trial counts.
  Decisions depend only on the samples (which are worker-invariant), so
  the realized trial count is identical at any worker count or executor.

Nothing here imports the engine: the engine imports *this* module and embeds
:func:`sketch_from_samples` payloads in the records of adaptive batches.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.util.stats import z_score as z_score  # re-exported; single source of truth

#: Schema version stamped into serialized sketch payloads.
SKETCH_SCHEMA = 1

#: Default bottom-k reservoir capacity.  512 entries bound the rank error
#: of any quantile estimate by ~0.06 at 95% confidence (see
#: :func:`quantile_rank_epsilon`) while keeping a sketch record under ~8 KB.
DEFAULT_RESERVOIR = 512

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def quantile_rank_epsilon(capacity: int, confidence: float = 0.95) -> float:
    """DKW rank-error bound of a size-``capacity`` uniform quantile sample.

    With probability at least ``confidence``, every quantile estimated from
    a uniform sample of ``capacity`` observations lies between the true
    ``(q - eps)``- and ``(q + eps)``-quantiles, where
    ``eps = sqrt(ln(2 / (1 - confidence)) / (2 * capacity))`` (the
    Dvoretzky–Kiefer–Wolfowitz inequality).  This is the documented error
    bound of the :func:`sketch_from_samples` reservoir once the stream
    outgrows it.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * capacity))


def sketch_salt(token: object) -> int:
    """Deterministic 64-bit reservoir salt derived from seed material.

    ``token`` is any JSON-able identity (the engine passes the batch's
    ``seed_token``).  The salt — not the values — drives the reservoir's
    priority stream, so a batch's sketch depends only on its seeds and
    samples, whatever the worker count or executor.
    """
    return text_salt(json.dumps(token, sort_keys=True, separators=(",", ":")))


def text_salt(canonical: str) -> int:
    """:func:`sketch_salt` of a token given as its canonical JSON text."""
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _priority(salt: int, index: int) -> int:
    """splitmix64 finalizer over ``salt ^ (index * golden)`` — the priority
    of trial ``index`` in the salt's reservoir stream (a deterministic
    pseudo-random permutation of the trial indices)."""
    z = (salt ^ ((index & _MASK64) * _GOLDEN)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _is_exact(value) -> bool:
    """Whether ``value`` participates in the exact integer track."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    return isinstance(value, float) and value.is_integer()


class MomentSketch:
    """Streaming moments: count, mean, variance, min, max.

    Updates use Welford's online algorithm.  Integer-valued streams
    additionally keep exact integer ``total`` / ``total_sq`` sums; while
    that track is alive, ``mean`` and ``variance`` are derived from the
    exact sums — one float division at the very end — making them
    independent of update order and chunking (the property the result
    store's byte-identity contract relies on).  A single non-integer
    observation permanently drops the stream to the float track: its mean
    comes from a Neumaier-compensated running sum (Welford's running mean
    drifts when large values cancel) and its variance from Welford.
    """

    __slots__ = (
        "count", "minimum", "maximum", "_mean", "_m2", "_sum", "_sum_err",
        "_total", "_total_sq",
    )

    def __init__(self) -> None:
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._mean = 0.0
        self._m2 = 0.0
        # Neumaier-compensated float sum: the float track's mean.
        self._sum = 0.0
        self._sum_err = 0.0
        # Exact integer sums; None once a non-integer value arrives.
        self._total: Optional[int] = 0
        self._total_sq: Optional[int] = 0

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "MomentSketch":
        """A sketch over an existing sample iterable."""
        sketch = cls()
        sketch.update_many(samples)
        return sketch

    def update(self, value) -> None:
        """Fold one observation into the sketch."""
        value = float(value) if not _is_exact(value) else value
        self.count += 1
        numeric = float(value)
        if self.minimum is None or numeric < self.minimum:
            self.minimum = numeric
        if self.maximum is None or numeric > self.maximum:
            self.maximum = numeric
        delta = numeric - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (numeric - self._mean)
        self._add_to_sum(numeric)
        if self._total is not None:
            if _is_exact(value):
                self._total += int(value)
                self._total_sq += int(value) ** 2
            else:
                self._total = self._total_sq = None

    def _add_to_sum(self, value: float) -> None:
        """Neumaier's compensated summation step."""
        total = self._sum + value
        if abs(self._sum) >= abs(value):
            self._sum_err += (self._sum - total) + value
        else:
            self._sum_err += (value - total) + self._sum
        self._sum = total

    def update_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations into the sketch, in order."""
        for value in values:
            self.update(value)

    @property
    def mean(self) -> float:
        """Mean of the stream (derived from exact sums when available)."""
        if self.count == 0:
            raise ValueError("cannot take the mean of an empty sketch")
        if self._total is not None:
            return self._total / self.count
        return (self._sum + self._sum_err) / self.count

    @property
    def variance(self) -> float:
        """Unbiased (``ddof=1``) sample variance; 0.0 for a single value."""
        if self.count == 0:
            raise ValueError("cannot take the variance of an empty sketch")
        if self.count == 1:
            return 0.0
        if self._total is not None:
            numerator = self.count * self._total_sq - self._total * self._total
            return numerator / (self.count * (self.count - 1))
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count == 0:
            raise ValueError("cannot take the sem of an empty sketch")
        return self.std / math.sqrt(self.count)

    def ci_halfwidth(self, confidence: float = 0.95) -> float:
        """Normal-approximation CI half-width around the running mean."""
        if self.count < 2:
            return math.inf
        return z_score(confidence) * self.sem

    def as_dict(self) -> dict:
        """JSON-able form.  Exact streams persist the integer sums only, so
        the payload is byte-stable whatever the chunking that produced it."""
        payload: dict = {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
        }
        if self._total is not None:
            payload["total"] = self._total
            payload["total_sq"] = self._total_sq
        else:
            payload["sum"] = self._sum
            payload["sum_err"] = self._sum_err
            payload["m2"] = self._m2
        return payload


def sketch_from_samples(
    samples: Sequence[float], salt: int, capacity: int = DEFAULT_RESERVOIR
) -> dict:
    """The ``"sketch"`` payload an adaptive batch record embeds.

    ``moments`` is the :class:`MomentSketch` of ``samples``; ``quantiles``
    is a bottom-``capacity`` reservoir: trial ``i`` gets the priority
    ``splitmix64(salt, i)`` and the ``capacity`` smallest ``[priority,
    value]`` pairs are kept, sorted.  Priorities are a pseudo-random
    permutation of the trial indices, so the kept values are a uniform
    sample without replacement (quantiles within the DKW rank error of
    :func:`quantile_rank_epsilon`), and all of ``samples`` when it fits.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    salt = int(salt) & _MASK64
    entries = sorted(
        (_priority(salt, index), float(value)) for index, value in enumerate(samples)
    )
    return {
        "schema": SKETCH_SCHEMA,
        "moments": MomentSketch.from_samples(samples).as_dict(),
        "quantiles": {
            "capacity": int(capacity),
            "salt": salt,
            "total": len(samples),
            "entries": [[priority, value] for priority, value in entries[:capacity]],
        },
    }


@dataclass(frozen=True)
class StoppingRule:
    """Sequential stopping policy for one trial batch.

    Stop the batch once the normal-approximation confidence interval
    around the running mean is at most ``target_halfwidth`` wide on each
    side (``relative=True`` scales the target by the running mean's
    magnitude), provided at least ``min_trials`` trials have run; the
    spec's ``num_trials`` is the hard budget.  The engine evaluates the
    rule every ``check_every`` trials — a *statistical* chunk boundary,
    fixed by the rule, never by the worker count — so the realized trial
    count is a pure function of the samples and therefore identical at any
    worker count or executor kind.
    """

    target_halfwidth: float
    confidence: float = 0.95
    min_trials: int = 16
    check_every: int = 16
    relative: bool = False

    def __post_init__(self) -> None:
        if not self.target_halfwidth > 0:
            raise ValueError(
                f"target_halfwidth must be > 0, got {self.target_halfwidth}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.min_trials < 2:
            raise ValueError(f"min_trials must be >= 2, got {self.min_trials}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")
        object.__setattr__(self, "target_halfwidth", float(self.target_halfwidth))
        object.__setattr__(self, "confidence", float(self.confidence))
        object.__setattr__(self, "min_trials", int(self.min_trials))
        object.__setattr__(self, "check_every", int(self.check_every))
        object.__setattr__(self, "relative", bool(self.relative))

    def target_for(self, mean: float) -> float:
        """The absolute half-width target given the running mean."""
        if self.relative:
            return self.target_halfwidth * abs(mean)
        return self.target_halfwidth

    def satisfied(self, moments: MomentSketch) -> bool:
        """Whether the running CI is narrow enough to stop."""
        if moments.count < self.min_trials:
            return False
        return moments.ci_halfwidth(self.confidence) <= self.target_for(moments.mean)

    def as_dict(self) -> dict:
        """Canonical JSON form (also the spec cache-token contribution)."""
        return {
            "target_halfwidth": self.target_halfwidth,
            "confidence": self.confidence,
            "min_trials": self.min_trials,
            "check_every": self.check_every,
            "relative": self.relative,
        }

    # The cache token and the serialized form coincide: every field of the
    # rule changes which trials run, so every field must key the record.
    cache_token = as_dict

    @classmethod
    def from_dict(cls, payload: object) -> "StoppingRule":
        """Parse a rule payload (strict: unknown keys fail)."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"a stopping rule must be a mapping, got {type(payload).__name__}"
            )
        known = {"target_halfwidth", "confidence", "min_trials", "check_every", "relative"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown stopping-rule field(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        if "target_halfwidth" not in payload:
            raise ValueError("a stopping rule needs a target_halfwidth")
        return cls(**payload)
