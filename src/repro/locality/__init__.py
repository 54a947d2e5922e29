"""Locality analyses: reuse distance, histograms, evadable reuses (§2.1)."""

from .evadable import (
    ClassStats,
    EvadableReport,
    classify_evadable,
    classify_evadable_stats,
    per_class_stats,
)
from .histogram import ReuseHistogram
from .reuse_distance import (
    COLD,
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
    "classify_evadable_stats",
    "miss_count",
    "miss_ratio_curve",
    "per_class_stats",
    "reuse_distances",
    "reuse_distances_naive",
]
