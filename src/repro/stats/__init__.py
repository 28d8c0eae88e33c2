"""repro.stats — streaming statistics for adaptive, store-scale aggregation.

The classical helpers in :mod:`repro.util.stats` operate on fully
materialized sample lists.  This package holds their *streaming* analogues
(:mod:`repro.stats.sequential`): mergeable moment accumulators and
bounded-size quantile sketches that batch records can embed, plus the
sequential :class:`~repro.stats.sequential.StoppingRule` the engine
evaluates between trial chunks.  Invariants: integer-valued streams (the
flooding times) accumulate *exactly* — arbitrary-precision integer sums make
sketch merging associative and byte-stable in any merge order — and the
reservoir streams are seed-derived, so sharded and unsharded runs embed
bit-identical sketches.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.stats.sequential": (
            "DEFAULT_RESERVOIR",
            "BatchSketch",
            "MomentSketch",
            "P2Quantile",
            "QuantileSketch",
            "StoppingRule",
            "merge_sketch_payloads",
            "quantile_rank_epsilon",
            "sketch_from_samples",
            "sketch_salt",
            "summary_from_sketch",
            "whp_from_sketch",
            "z_score",
        ),
    },
)
