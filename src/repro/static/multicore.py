"""Per-thread shared-cache prediction (the OpenMP reuse-distance model).

Given a single-thread symbolic reuse profile and a parallelism profile,
predict what a ``T``-thread execution does to every reuse distance —
following the scaling recipe of *Modeling Shared Cache Performance of
OpenMP Programs using Reuse Distance* (PAPERS.md): each top-level nest
whose outermost axis is parallel (DOALL or reduction) is block-partitioned
across threads, and every reuse component transforms by kind:

======================  ========================  ====================
component kind          private (per-thread L1)   shared (merged L2)
======================  ========================  ====================
intra/carried/sibling   ``d`` (within a chunk)    ``T * d`` (T streams
                                                  interleave between
                                                  the two touches)
cross_nest/cross_step   partition-aligned under   ``d`` (all threads
                        static scheduling:        together still
                        ``d / T`` (a thread       traverse the full
                        re-traverses only its     data between the two
                        own chunk); otherwise     touches)
                        the footprint horizon —
                        the producing touch ran
                        on another core, so the
                        reuse misses in any
                        realistic private cache
======================  ========================  ====================

Two nests are *partition-aligned* for a reuse pair when both are
parallel, their outer loops run over the same range, and the two
references' subscripts depend on their respective outermost variables
with the same coefficients — then the block partition hands the same
elements to the same thread and cross-nest reuse stays on-core.  A
column sweep following a row sweep (adi's signature pattern) fails the
test: the reused elements live on a different core, so the private
view pushes those reuses out to the footprint horizon.  Dynamic
scheduling destroys chunk affinity for *every* cross-nest/cross-step
reuse.

Axes classified serial run on one thread, so their distances are
unchanged in both views; access totals are conserved exactly in both.
The prediction is cross-validated against a real round-robin
interleaved simulation by ``repro.interp.interleave`` (tests pin totals
exact and mean log distance within the PR 5 tolerance bands).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ..lang import NotAffineError, Program
from ..locality.histogram import ReuseHistogram
from ..obs import metrics, span
from .model import StaticRef
from .parallelism import ParallelismProfile, analyze_parallelism, interval
from .profile import StaticProfile, analyze_program, clamp_distance
from .schedule import (
    chunk_count,
    parse_schedule,
    preserves_affinity,
    schedule_chunks,
    thread_span,
)

#: component kinds whose reuse stays inside one thread's chunk
_CHUNK_LOCAL = ("intra", "carried", "sibling")


@dataclass(frozen=True)
class MulticorePrediction:
    """Predicted multi-thread locality of one program at one size."""

    program_name: str
    params: tuple[tuple[str, int], ...]
    threads: int
    schedule: str
    parallel_nests: tuple[int, ...]
    serial_nests: tuple[int, ...]
    #: (count, distance) pairs for the per-thread private view
    private_pairs: tuple[tuple[float, float], ...]
    #: (count, distance) pairs for the interleaved shared view
    shared_pairs: tuple[tuple[float, float], ...]
    #: compulsory misses of the private view (first touches; a thread's
    #: genuinely-first touch of data another core produced shows up in
    #: a dynamic run as extra cold, which the model keeps as a
    #: footprint-horizon reuse instead — same miss, different label)
    private_cold: float
    #: compulsory misses of the shared view (true first touches)
    shared_cold: float
    #: predicted per-thread coherence invalidation misses, folded in by
    #: :meth:`with_invalidations` (empty until a coherence profile is
    #: attached; see ``repro.static.coherence``)
    invalidations: tuple[float, ...] = ()

    @property
    def total(self) -> float:
        return self.shared_cold + sum(c for c, _ in self.shared_pairs)

    @property
    def total_invalidations(self) -> float:
        return float(sum(self.invalidations))

    def with_invalidations(
        self, per_thread: Sequence[float]
    ) -> "MulticorePrediction":
        """Fold per-thread coherence invalidation misses into the
        prediction (they add to private misses; reuse distances are a
        property of each thread's own stream and stay unchanged)."""
        if len(per_thread) != self.threads:
            raise ValueError(
                f"{len(per_thread)} invalidation counts for "
                f"{self.threads} threads"
            )
        return replace(
            self, invalidations=tuple(float(v) for v in per_thread)
        )

    def private_histogram(self) -> ReuseHistogram:
        """Predicted histogram of the union of per-thread private streams.

        Counts are program totals (every access lands in exactly one
        thread's private stream), so the histogram is directly
        comparable to the per-thread dynamic streams combined.
        """
        return ReuseHistogram.from_pairs(self.private_pairs, self.private_cold)

    def shared_histogram(self) -> ReuseHistogram:
        """Predicted histogram of the round-robin interleaved stream."""
        return ReuseHistogram.from_pairs(self.shared_pairs, self.shared_cold)

    def private_miss_count(self, capacity_elems: int) -> float:
        """Predicted total private-cache misses across all threads.

        Coherence invalidation misses (when folded in via
        :meth:`with_invalidations`) are reuses that would have hit on
        distance but lost their line to another thread's write — they
        add to the miss count on top of the capacity model.
        """
        base = self.private_cold + sum(
            c for c, d in self.private_pairs if d >= capacity_elems
        )
        return base + self.total_invalidations

    def shared_miss_count(self, capacity_elems: int) -> float:
        """Predicted misses of the shared cache under the merged stream."""
        return self.shared_cold + sum(
            c for c, d in self.shared_pairs if d >= capacity_elems
        )

    def render(
        self, l1_elems: Optional[int] = None, l2_elems: Optional[int] = None
    ) -> str:
        size = ", ".join(f"{k}={v}" for k, v in self.params)
        lines = [
            f"multicore prediction: {self.program_name} at {size} — "
            f"{self.threads} threads, {self.schedule} schedule",
            f"  parallel nests: "
            f"{', '.join(map(str, self.parallel_nests)) or '(none)'}"
            f"; serial nests: "
            f"{', '.join(map(str, self.serial_nests)) or '(none)'}",
            f"  accesses: {self.total:.0f} "
            f"(cold: {self.shared_cold:.0f} shared, "
            f"{self.private_cold:.0f} private)",
        ]
        if self.invalidations:
            lines.append(
                f"  invalidation misses: {self.total_invalidations:.0f} "
                f"({', '.join(f'{v:.0f}' for v in self.invalidations)} "
                f"per thread)"
            )
        if l1_elems is not None:
            lines.append(
                f"  private L1 ({l1_elems} elems): "
                f"{self.private_miss_count(l1_elems):.0f} misses"
            )
        if l2_elems is not None:
            lines.append(
                f"  shared L2 ({l2_elems} elems): "
                f"{self.shared_miss_count(l2_elems):.0f} misses"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "program": self.program_name,
            "params": dict(self.params),
            "threads": self.threads,
            "schedule": self.schedule,
            "parallel_nests": list(self.parallel_nests),
            "serial_nests": list(self.serial_nests),
            "total": self.total,
            "private_cold": self.private_cold,
            "shared_cold": self.shared_cold,
            "private_mld": self.private_histogram().mean_log_distance(),
            "shared_mld": self.shared_histogram().mean_log_distance(),
            "invalidation_misses": self.total_invalidations,
        }


#: chunk-boundary slack: outer ranges shifted by at most this many
#: iterations (boundary guards, peeled first/last rows) still hand
#: almost every element to the same thread
_BOUNDS_SLACK = 2


def _linear_outer_coeff(
    ref: StaticRef, strides: Mapping[str, tuple[int, ...]]
) -> int | Fraction:
    """Coefficient of the ref's outermost loop var in its linearized
    (column-major) element index — how fast the touched element moves
    per outer iteration."""
    outer = ref.scope[0].index
    return sum(
        sub.coeff(outer) * stride
        for sub, stride in zip(ref.subs, strides[ref.array])
    )


def _partition_aligned(
    src: StaticRef,
    dst: StaticRef,
    parallel: frozenset[int],
    env: Mapping[str, int],
    strides: Mapping[str, tuple[int, ...]],
) -> bool:
    """Does the block partition keep this reuse pair on one thread?

    True when the source's nest is also parallel, both outer loops run
    over (almost) the same concrete range, and the linearized element
    index depends on the two outermost variables with the same
    coefficient — then chunk ``t`` of the source touches essentially
    the elements chunk ``t`` of the destination re-touches.  A column
    sweep after a row sweep fails the coefficient test; ranges shifted
    by boundary guards (``1..N`` vs ``2..N-1``) pass the slack test.
    """
    if src.nest != dst.nest and src.nest not in parallel:
        return False
    if not src.scope or not dst.scope:
        return False
    so, do = src.scope[0], dst.scope[0]
    if (
        abs(so.lo.evaluate(env) - do.lo.evaluate(env)) > _BOUNDS_SLACK
        or abs(so.hi.evaluate(env) - do.hi.evaluate(env)) > _BOUNDS_SLACK
    ):
        return False
    return _linear_outer_coeff(src, strides) == _linear_outer_coeff(
        dst, strides
    )


def _scope_ranges(
    ref: StaticRef,
    env: Mapping[str, int],
    outer_span: Optional[tuple[int, int]] = None,
) -> dict[str, tuple[int, int]]:
    """Concrete [lo, hi] range per loop variable of the ref's scope,
    outermost first (inner bounds may reference outer variables), with
    the outermost range optionally replaced by a thread's span."""
    ranges: dict[str, tuple[int, int]] = {}
    for depth, ctx in enumerate(ref.scope):
        lo, _ = interval(ctx.lo, env, ranges)
        _, hi = interval(ctx.hi, env, ranges)
        if depth == 0 and outer_span is not None:
            lo, hi = outer_span
        ranges[ctx.index] = (lo, hi)
    return ranges


def _ref_box(
    ref: StaticRef,
    env: Mapping[str, int],
    outer_span: Optional[tuple[int, int]] = None,
) -> Optional[tuple[tuple[int, int], ...]]:
    """Per-dimension [lo, hi] interval of the elements the ref touches
    (the rectangular hull of its footprint), outer loop restricted to
    ``outer_span`` when given.  None when the subscripts fall outside
    the affine subset the interval engine supports."""
    try:
        ranges = _scope_ranges(ref, env, outer_span)
        return tuple(interval(sub, env, ranges) for sub in ref.subs)
    except NotAffineError:
        return None


def _box_overlap_fraction(
    dst_box: tuple[tuple[int, int], ...],
    src_box: tuple[tuple[int, int], ...],
) -> float:
    """|dst ∩ src| / |dst| over rank-aligned rectangular boxes."""
    if len(dst_box) != len(src_box):
        return 0.0
    frac = 1.0
    for (dlo, dhi), (slo, shi) in zip(dst_box, src_box):
        width = dhi - dlo + 1
        if width <= 0:
            return 0.0
        inter = min(dhi, shi) - max(dlo, slo) + 1
        if inter <= 0:
            return 0.0
        frac *= min(inter, width) / width
    return frac


def _per_outer_accesses(
    ref: StaticRef, env: Mapping[str, int]
) -> Optional[float]:
    """How many accesses the ref performs per iteration of its outer
    loop — the distance floor below which a chunk-local reuse provably
    stays inside one outer iteration (so no chunk boundary can cut
    it).  None when the trip counts fall outside the interval subset."""
    if not ref.scope:
        return None
    try:
        ranges = _scope_ranges(ref, env)
    except NotAffineError:
        return None
    lo, hi = ranges[ref.scope[0].index]
    n = hi - lo + 1
    if n <= 0:
        return None
    total = float(ref.exec_count().evaluate(env))
    return total / n


def _boundary_fraction(
    ref: StaticRef,
    env: Mapping[str, int],
    threads: int,
    schedule: str,
) -> float:
    """Fraction of a chunk-local reuse pushed off-thread by the *extra*
    chunk boundaries of a chunked schedule.

    Plain static blocking cuts the outer range into at most ``T``
    pieces, whose T-1 internal boundaries the model already neglects;
    ``static,k`` and ``guided`` cut it into ``C >= T`` pieces, and a
    unit-distance carried reuse crossing one of the ``C - T`` extra
    boundaries is consumed by the round-robin *next* thread — off-core.
    The fraction of the ``n - 1`` iteration gaps that land on an extra
    boundary estimates the lost share.
    """
    kind, chunk = parse_schedule(schedule)
    if kind == "dynamic" or (kind == "static" and chunk == 0):
        return 0.0
    try:
        ranges = _scope_ranges(ref, env)
    except NotAffineError:
        return 0.0
    lo, hi = ranges[ref.scope[0].index]
    n = hi - lo + 1
    if n <= 1:
        return 0.0
    extra = max(0, chunk_count(lo, hi, threads, schedule) - threads)
    return min(1.0, extra / (n - 1))


def _thread_coverage(
    dst: StaticRef,
    kind: str,
    refs: Sequence[StaticRef],
    parallel: frozenset[int],
    env: Mapping[str, int],
    threads: int,
    schedule: str,
) -> float:
    """How much of a misaligned cross reuse actually stays on-thread.

    When the consuming nest is partitioned over a *different* axis than
    the producing nest (sp's signature pattern: component-axis sweeps
    after plane sweeps), the nearest toucher ran on another core — but
    each consumer thread usually re-touches a slice of data it already
    visited under the other partitioning.  That slice is a long-distance
    on-thread reuse, not a compulsory miss.  The fraction is estimated
    per thread as the best rectangular-hull overlap between the thread's
    chunk of the consuming reference and its chunk of any earlier
    reference of the same array (serial nests belong to thread 0), then
    averaged weighted by chunk size.  ``cross_step`` reuse may come from
    any nest of the previous step; ``cross_nest`` only from earlier
    nests of the same step.
    """
    if not dst.scope:
        return 0.0
    try:
        outer_ranges = _scope_ranges(dst, env)
    except NotAffineError:
        return 0.0
    dlo, dhi = outer_ranges[dst.scope[0].index]
    if dhi < dlo:
        return 0.0
    priors = [
        r
        for r in refs
        if r.array == dst.array
        and (kind == "cross_step" or r.nest < dst.nest)
        and r is not dst
    ]
    if not priors:
        return 0.0
    chunks = schedule_chunks(dlo, dhi, threads, schedule)
    weighted = 0.0
    total_w = 0.0
    for t in range(threads):
        if not chunks[t]:
            continue
        span_t = (chunks[t][0][0], chunks[t][-1][1])
        w = sum(b - a + 1 for a, b in chunks[t])
        dst_box = _ref_box(dst, env, span_t)
        if dst_box is None:
            continue
        best = 0.0
        for r in priors:
            if r.nest in parallel and r.scope:
                try:
                    r_ranges = _scope_ranges(r, env)
                except NotAffineError:
                    continue
                rlo, rhi = r_ranges[r.scope[0].index]
                if rhi < rlo:
                    continue
                r_span = thread_span(rlo, rhi, threads, t, schedule)
                if r_span[1] < r_span[0]:
                    continue
                src_box = _ref_box(r, env, r_span)
                # chunked schedules scatter a thread's chunks across a
                # wide bounding span; the thread only *owns* its chunk
                # iterations, so the hull overlap is diluted by the
                # ownership density inside the span
                r_chunks = schedule_chunks(
                    rlo, rhi, threads, schedule
                )[t]
                owned = sum(b - a + 1 for a, b in r_chunks)
                span_n = r_span[1] - r_span[0] + 1
                density = owned / span_n if span_n > 0 else 0.0
            elif t == 0:  # serial nests execute entirely on thread 0
                src_box = _ref_box(r, env)
                density = 1.0
            else:
                continue
            if src_box is None:
                continue
            best = max(
                best,
                _box_overlap_fraction(dst_box, src_box) * density,
            )
            if best >= 1.0:
                break
        weighted += w * best
        total_w += w
    return weighted / total_w if total_w > 0 else 0.0


def predict_multicore(
    profile: StaticProfile,
    parallelism: ParallelismProfile,
    params: Mapping[str, int],
    threads: int = 4,
    schedule: str = "static",
) -> MulticorePrediction:
    """Scale ``profile``'s reuse distances for a ``threads``-way run.

    Walks :meth:`StaticProfile.class_walk`'s rows, whose component
    *kind* selects the distance transform from the table in the module
    docstring.  Nests whose outermost axis is serial keep their
    single-thread distances.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    parse_schedule(schedule)  # reject unknown specs up front
    affinity = preserves_affinity(schedule)
    env = dict(params)
    cap = float(profile.footprint.evaluate(env))
    refs = profile.model.refs
    strides = {
        name: decl.strides(env) for name, decl in profile.model.arrays.items()
    }
    parallel = frozenset(parallelism.parallel_nests())
    serial = tuple(
        sorted(
            {v.nest for v in parallelism.verdicts if v.depth == 0}
            - parallel
        )
    )

    def clamp(value: float) -> float:
        return clamp_distance(value, cap)

    # one thread's share of a full pass over the data: serial nests are
    # traversed whole, parallel nests at 1/T — so any cross-nest gap
    # shrinks to this fraction of its single-thread volume
    total_accesses = float(profile.model.total_accesses().evaluate(env))
    par_accesses = sum(
        float(r.exec_count().evaluate(env))
        for r in refs
        if r.nest in parallel
    )
    p_frac = par_accesses / total_accesses if total_accesses > 0 else 0.0
    traversal = (1.0 - p_frac) + p_frac / threads

    private: list[tuple[float, float]] = []
    shared: list[tuple[float, float]] = []
    cold_shared = 0.0
    cold_private = 0.0
    for cp in profile.classes:
        is_par = threads > 1 and cp.ref.nest in parallel
        rows, cold = profile.class_walk(cp, env)
        for comp, count, dist in rows:
            if threads == 1:
                shared.append((count, dist))
                private.append((count, dist))
                continue
            if comp.kind in _CHUNK_LOCAL:
                if is_par:
                    shared.append((count, clamp(dist * threads)))
                else:
                    shared.append((count, dist))
                # chunked schedules (static,k / guided) cut each
                # thread's range into more pieces than plain blocking;
                # a reuse carried across one of the extra chunk
                # boundaries lands on the next thread round-robin —
                # off-core, so it degrades to the footprint horizon.
                # Only reuse spanning at least one full outer iteration
                # can cross an outer-axis boundary: shorter-distance
                # reuse (innermost-carried, intra, sibling) lives
                # inside a single outer iteration and never sees the
                # boundary, whatever the chunking.
                boundary = 0.0
                if is_par and cp.ref.scope:
                    per_outer = _per_outer_accesses(cp.ref, env)
                    if per_outer is None or dist >= per_outer:
                        bf = _boundary_fraction(
                            cp.ref, env, threads, schedule
                        )
                        boundary = count * bf
                if boundary > 0:
                    # losing the source to another core never shortens
                    # the reuse: degrade to the horizon, floored at the
                    # original distance
                    private.append(
                        (boundary, clamp(max(dist, cap / threads)))
                    )
                if count - boundary > 0:
                    private.append((count - boundary, dist))
                continue
            # cross_nest / cross_step: globally the full data still
            # passes between the touches (shared distance unchanged);
            # privately the gap shrinks to one thread's traversal share
            shared.append((count, dist))
            src = refs[comp.source] if comp.source is not None else cp.ref
            if is_par and not (
                affinity
                and _partition_aligned(src, cp.ref, parallel, env, strides)
            ):
                # the nearest producing touch ran on another core.  The
                # slice of the chunk the consumer thread itself visited
                # earlier (under whatever axis the earlier nests were
                # partitioned on) is still an on-thread reuse — a whole
                # per-thread traversal back, the footprint horizon.
                # Only the remainder is a genuine first touch for this
                # thread: compulsory on the first pass over the data,
                # horizon-distance reuse of its own previous-step touch
                # on later passes.
                coverage = (
                    _thread_coverage(
                        cp.ref, comp.kind, refs, parallel, env,
                        threads, schedule,
                    )
                    if affinity
                    else 0.0
                )
                on_thread = count * coverage
                off_thread = count - on_thread
                cold_private += off_thread / profile.steps
                horizon = on_thread + off_thread * (
                    profile.steps - 1
                ) / profile.steps
                if horizon > 0:
                    private.append((horizon, clamp(cap / threads)))
            else:
                private.append((count, dist * traversal))
        cold_shared += cold
        cold_private += cold
    return MulticorePrediction(
        program_name=profile.model.program.name,
        params=tuple(sorted(env.items())),
        threads=threads,
        schedule=schedule,
        parallel_nests=tuple(sorted(parallel)),
        serial_nests=serial,
        private_pairs=tuple(private),
        shared_pairs=tuple(shared),
        private_cold=cold_private,
        shared_cold=cold_shared,
    )


def predict_program_multicore(
    program: Program,
    params: Mapping[str, int],
    threads: int = 4,
    schedule: str = "static",
    steps: int = 1,
) -> MulticorePrediction:
    """One-call wrapper: analyze reuse + parallelism, then predict."""
    with span(
        "multicore-predict",
        program=program.name,
        threads=threads,
        schedule=schedule,
    ):
        profile = analyze_program(program, steps=steps)
        parallelism = analyze_parallelism(program, params)
        pred = predict_multicore(
            profile, parallelism, params, threads, schedule
        )
        metrics.inc("analysis.parallelism.multicore_predictions")
        return pred
