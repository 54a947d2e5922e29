"""Evadable-reuse classification (paper §2.1–2.2).

The paper: *"We call those reuses whose reuse distance increases with the
input size evadable reuses."*  Operationally we classify per static
*reuse class* — the source reference performing the reuse — by measuring
mean reuse distance at two (or more) input sizes and testing growth:
a class is evadable when its mean distance grows by at least
:data:`GROWTH_FACTOR` while the data size grows, and the grown distance
is above :data:`NOISE_FLOOR`.  The evadable-reuse *count* of a run is
the number of dynamic reuses belonging to evadable classes at the
largest size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .reuse_distance import COLD, reuse_distances

if TYPE_CHECKING:
    from ..interp.trace import AccessTrace

#: a class is evadable when its mean distance grows by this factor ...
GROWTH_FACTOR = 1.5
#: ... and the grown mean is at least this many elements
NOISE_FLOOR = 64.0


@dataclass(frozen=True)
class ClassStats:
    """Per-reuse-class statistics at one input size."""

    ref_id: int
    reuses: int
    mean_distance: float


def per_class_stats(trace: AccessTrace) -> dict[int, ClassStats]:
    """Mean reuse distance per static reference (reuse class)."""
    distances = reuse_distances(trace.global_keys())
    mask = distances != COLD
    refs = trace.ref_ids[mask]
    dists = distances[mask]
    out: dict[int, ClassStats] = {}
    if refs.size == 0:
        return out
    order = np.argsort(refs, kind="stable")
    refs_sorted = refs[order]
    dists_sorted = dists[order]
    boundaries = np.flatnonzero(np.diff(refs_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [refs_sorted.size]))
    for s, e in zip(starts, ends):
        rid = int(refs_sorted[s])
        segment = dists_sorted[s:e]
        out[rid] = ClassStats(rid, int(e - s), float(segment.mean()))
    return out


@dataclass
class EvadableReport:
    """Result of the cross-size evadability analysis."""

    evadable_classes: frozenset[int]
    evadable_reuses: int  # dynamic count at the largest size
    total_reuses: int  # dynamic reuse count at the largest size
    stats_small: Mapping[int, ClassStats]
    stats_large: Mapping[int, ClassStats]

    @property
    def evadable_fraction(self) -> float:
        if self.total_reuses == 0:
            return 0.0
        return self.evadable_reuses / self.total_reuses


def classify_evadable(
    trace_small: AccessTrace, trace_large: AccessTrace
) -> EvadableReport:
    """Classify reuse classes by comparing two input sizes.

    A class is evadable when ``mean_large >= GROWTH_FACTOR * mean_small``
    (treating classes absent at the small size as growing) and
    ``mean_large >= NOISE_FLOOR``.  The floor keeps constant-but-jittery
    short reuses (the non-evadable hills of Fig. 3) out of the count.
    """
    return classify_evadable_stats(
        per_class_stats(trace_small), per_class_stats(trace_large)
    )


def classify_evadable_stats(
    small: Mapping[int, ClassStats], large: Mapping[int, ClassStats]
) -> EvadableReport:
    """The two-size decision rule over already-computed class stats.

    Shared between the dynamic classifier (stats measured from traces)
    and the static analyzer (stats predicted from symbolic profiles), so
    both sides answer evadability with literally the same code.
    """
    evadable: set[int] = set()
    for rid, stat in large.items():
        if stat.mean_distance < NOISE_FLOOR:
            continue
        base = small.get(rid)
        if base is None or base.mean_distance <= 0:
            evadable.add(rid)
        elif stat.mean_distance >= GROWTH_FACTOR * base.mean_distance:
            evadable.add(rid)
    evadable_reuses = sum(large[rid].reuses for rid in evadable)
    total = sum(s.reuses for s in large.values())
    return EvadableReport(
        evadable_classes=frozenset(evadable),
        evadable_reuses=evadable_reuses,
        total_reuses=total,
        stats_small=small,
        stats_large=large,
    )
