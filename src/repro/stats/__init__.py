"""repro.stats — streaming statistics for adaptive sampling.

The classical helpers in :mod:`repro.util.stats` operate on fully
materialized sample lists.  This package holds their *streaming* analogues
(:mod:`repro.stats.sequential`): the running-moment accumulator behind the
sequential :class:`~repro.stats.sequential.StoppingRule` the engine
evaluates between trial chunks, and the sketch (exact moments plus a
bounded quantile reservoir) that adaptive batch records embed.  Invariants:
integer-valued streams (the flooding times) accumulate *exactly* —
arbitrary-precision integer sums make the moments independent of chunking —
and the reservoir streams are seed-derived, so a record's sketch depends
only on its seeds and samples.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.stats.sequential": (
            "DEFAULT_RESERVOIR",
            "MomentSketch",
            "StoppingRule",
            "quantile_rank_epsilon",
            "sketch_from_samples",
            "sketch_salt",
            "z_score",
        ),
    },
)
