"""Locality analyses: reuse distance, histograms, evadable reuses (§2.1)."""

from .evadable import (
    ClassStats,
    EvadableReport,
    classify_evadable,
    classify_evadable_program,
    classify_evadable_sizes,
    classify_evadable_stats,
    evadable_change,
    mean_distance_growth,
    per_class_stats,
)
from .histogram import ReuseHistogram
from .reuse_distance import (
    COLD,
    hit_ratio,
    miss_count,
    miss_ratio_curve,
    reuse_distances,
    reuse_distances_naive,
)

__all__ = [
    "COLD",
    "ClassStats",
    "EvadableReport",
    "ReuseHistogram",
    "classify_evadable",
    "classify_evadable_program",
    "classify_evadable_sizes",
    "classify_evadable_stats",
    "evadable_change",
    "hit_ratio",
    "mean_distance_growth",
    "miss_count",
    "miss_ratio_curve",
    "per_class_stats",
    "reuse_distances",
    "reuse_distances_naive",
]
