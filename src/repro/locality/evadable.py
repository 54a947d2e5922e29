"""Evadable-reuse classification (paper §2.1–2.2).

The paper: *"We call those reuses whose reuse distance increases with the
input size evadable reuses."*  Operationally we classify per static
*reuse class* — the source reference performing the reuse — by measuring
mean reuse distance at two (or more) input sizes and testing growth:
a class is evadable when its mean distance grows by at least
``growth_factor`` while the data size grows, and the grown distance is
above a noise floor.  The evadable-reuse *count* of a run is the number of
dynamic reuses belonging to evadable classes at the largest size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..interp.trace import AccessTrace
from .reuse_distance import COLD, reuse_distances


@dataclass(frozen=True)
class ClassStats:
    """Per-reuse-class statistics at one input size."""

    ref_id: int
    reuses: int
    mean_distance: float


def per_class_stats(trace: AccessTrace, distances: np.ndarray | None = None) -> dict[int, ClassStats]:
    """Mean reuse distance per static reference (reuse class)."""
    if distances is None:
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
    trace_small: AccessTrace,
    trace_large: AccessTrace,
    growth_factor: float = 1.5,
    noise_floor: float = 64.0,
    distances_small: np.ndarray | None = None,
    distances_large: np.ndarray | None = None,
) -> EvadableReport:
    """Classify reuse classes by comparing two input sizes.

    A class is evadable when ``mean_large >= growth_factor * mean_small``
    (treating classes absent at the small size as growing) and
    ``mean_large >= noise_floor``.  The floor keeps constant-but-jittery
    short reuses (the non-evadable hills of Fig. 3) out of the count.
    """
    small = per_class_stats(trace_small, distances_small)
    large = per_class_stats(trace_large, distances_large)
    return classify_evadable_stats(small, large, growth_factor, noise_floor)


def classify_evadable_stats(
    small: Mapping[int, ClassStats],
    large: Mapping[int, ClassStats],
    growth_factor: float = 1.5,
    noise_floor: float = 64.0,
) -> EvadableReport:
    """The two-size decision rule over already-computed class stats.

    Shared between the dynamic classifier (stats measured from traces)
    and the static analyzer (stats predicted from symbolic profiles), so
    both sides answer evadability with literally the same code.
    """
    evadable: set[int] = set()
    for rid, stat in large.items():
        if stat.mean_distance < noise_floor:
            continue
        base = small.get(rid)
        if base is None or base.mean_distance <= 0:
            evadable.add(rid)
        elif stat.mean_distance >= growth_factor * base.mean_distance:
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


def classify_evadable_program(
    program,
    small: Mapping[str, int],
    large: Mapping[str, int],
    steps: int = 1,
    growth_factor: float = 1.5,
    noise_floor: float = 64.0,
    method: str = "static",
) -> EvadableReport:
    """Classify a whole program's reuse classes — statically by default.

    The default ``method="static"`` predicts per-class stats from the
    symbolic reuse profile (:mod:`repro.static`) evaluated at the two
    sizes, so classification needs *no trace*; ``method="dynamic"``
    falls back to the original two-size regression over interpreted
    traces.  Both paths feed :func:`classify_evadable_stats`, so the
    decision rule is identical — only the provenance of the class
    means differs.
    """
    if method == "static":
        from ..static import analyze_program

        profile = analyze_program(program, steps=steps)
        return classify_evadable_stats(
            profile.class_stats(small),
            profile.class_stats(large),
            growth_factor,
            noise_floor,
        )
    if method == "dynamic":
        from ..interp.tracegen import trace_program

        trace_small = trace_program(program, dict(small), steps=steps)
        trace_large = trace_program(program, dict(large), steps=steps)
        return classify_evadable(
            trace_small, trace_large, growth_factor, noise_floor
        )
    raise ValueError(f"unknown method {method!r}: use 'static' or 'dynamic'")


def classify_evadable_sizes(
    traces: Sequence[AccessTrace],
    growth_factor: float = 1.5,
    noise_floor: float = 64.0,
) -> EvadableReport:
    """Classify across several input sizes, smallest to largest.

    A class that performs *zero* reuses at the smallest size (cold-only
    at small N — e.g. a boundary reference whose reuse partner only
    materializes once the array outgrows a seed region) used to be
    treated as "absent at small", which the two-size rule counts as
    evadable by default.  Here its baseline comes from the earliest size
    where the class actually reuses, so a class whose distance is flat
    from that point on classifies as non-evadable, with the guarded mean
    computation never touching the empty small-size segment.
    """
    if len(traces) < 2:
        raise ValueError("need at least two input sizes to classify growth")
    stats = [per_class_stats(t) for t in traces]
    large = stats[-1]
    # per class, the earliest size with a measured (non-empty) mean
    base: dict[int, ClassStats] = {}
    for level in stats[:-1]:
        for rid, stat in level.items():
            if rid not in base and stat.reuses > 0:
                base[rid] = stat
    return classify_evadable_stats(base, large, growth_factor, noise_floor)


def evadable_change(before: EvadableReport, after: EvadableReport) -> float:
    """Relative change in evadable-reuse count (negative = reduction).

    This is the number the paper reports in §2.2 (e.g. reuse-driven
    execution "reduced the number of evadable reuses by 63%" on SP).
    """
    if before.evadable_reuses == 0:
        return 0.0 if after.evadable_reuses == 0 else float("inf")
    return (after.evadable_reuses - before.evadable_reuses) / before.evadable_reuses


def mean_distance_growth(
    stats_small: Mapping[int, ClassStats],
    stats_large: Mapping[int, ClassStats],
) -> float:
    """Aggregate lengthening rate of reuse distances across sizes.

    Weighted mean of per-class growth ratios; the paper observes that
    reuse-driven execution also "slowed the lengthening rate" — this is
    the scalar that captures it.
    """
    total_weight = 0
    acc = 0.0
    for rid, stat in stats_large.items():
        base = stats_small.get(rid)
        if base is None or base.mean_distance <= 0 or stat.mean_distance <= 0:
            continue
        acc += stat.reuses * (stat.mean_distance / base.mean_distance)
        total_weight += stat.reuses
    return acc / total_weight if total_weight else 1.0
