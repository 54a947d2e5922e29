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
from functools import cache
from typing import Collection, Mapping, NamedTuple, Optional, Sequence

from ..lang import Affine, NotAffineError, Program
from ..lang.scope import eliminate, fold_range
from ..locality.histogram import ReuseHistogram
from ..obs import metrics, span
from .model import LoopCtx, StaticRef
from .parallelism import ParallelismProfile, analyze_parallelism
from .profile import StaticProfile, analyze_program, clamp_distance
from .schedule import parse_schedule, preserves_affinity, schedule_chunks

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


#: a reference's rectangular footprint: per subscript, its ``[lo, hi]``
Box = tuple[tuple[int, int], ...]


class _Share(NamedTuple):
    """One reference's part of a ``T``-thread run.

    ``outer`` is the concrete range of the reference's outer level,
    ``chunks`` the schedule's per-thread chunk lists over it and
    ``owned`` the outer iterations each thread owns.  ``parts`` holds,
    per thread, ``(box, density)``: the box
    :func:`~repro.lang.scope.eliminate` gives over the scope with the
    outer level narrowed to the thread's span (the hull of its chunks),
    and the owned iterations' share of that span; ``None`` for a thread
    that runs none of the reference.  A reference of a serial nest runs
    whole on thread 0 and has no outer range, chunks or owned counts.
    """

    outer: Optional[tuple[int, int]]
    chunks: list[list[tuple[int, int]]]
    owned: tuple[int, ...]
    parts: tuple[Optional[tuple[Box, float]], ...]


def _box(
    inner: Sequence[tuple[Affine, Affine]],
    outer: Sequence[LoopCtx],
    env: Mapping[str, int],
) -> Box:
    """The concrete box of subscripts whose ranges over the levels inside
    the outer one are ``inner``, once ``outer`` (that level, narrowed or
    not, or none) is eliminated too (:func:`~repro.lang.scope.fold_range`)."""
    return tuple(
        (fold_range(lo, outer, env)[0], fold_range(hi, outer, env)[1])
        for lo, hi in inner
    )


def _share(
    scope: tuple[LoopCtx, ...],
    subs: tuple[Affine, ...],
    partitioned: bool,
    env: Mapping[str, int],
    threads: int,
    schedule: str,
) -> Optional[_Share]:
    """The :class:`_Share` of a reference with these ``scope`` and
    ``subs`` (in a parallel nest when ``partitioned``), or None when one
    of its bounds or subscripts is not an integer form at ``env``.  The
    levels inside the outer one are eliminated once; only the outer
    level is narrowed per thread."""
    try:
        # Affine.fold raises where a form is fractional at env
        for ctx in scope:
            ctx.lo.fold(env)
            ctx.hi.fold(env)
        for sub in subs:
            sub.fold(env)
        inner = [eliminate(sub, scope, 1) for sub in subs]
        if not (partitioned and scope):
            whole = (_box(inner, scope[:1], env), 1.0)
            return _Share(None, [], (), (whole,) + (None,) * (threads - 1))
        outer = fold_range(Affine.var(scope[0].index), scope[:1], env)
        chunks = schedule_chunks(*outer, threads, schedule)
        owned = tuple(sum(b - a + 1 for a, b in own) for own in chunks)
        parts = []
        for own, n in zip(chunks, owned):
            if not own:
                parts.append(None)
                continue
            lo, hi = own[0][0], own[-1][1]
            span = scope[0]._replace(lo=Affine.constant(lo), hi=Affine.constant(hi))
            parts.append((_box(inner, (span,), env), n / (hi - lo + 1)))
    except NotAffineError:
        return None
    return _Share(outer, chunks, owned, tuple(parts))


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
    shares: tuple[Optional[_Share], Optional[_Share]],
    strides: Mapping[str, tuple[int, ...]],
) -> bool:
    """Does the block partition keep this reuse pair on one thread?

    True when both references are partitioned (the source's nest is
    also parallel), both outer loops run over (almost) the same concrete
    range (their ``shares``' ``outer``), and the linearized element
    index depends on the two outermost variables with the same
    coefficient — then chunk ``t`` of the source touches essentially
    the elements chunk ``t`` of the destination re-touches.  A column
    sweep after a row sweep fails the coefficient test; ranges shifted
    by boundary guards (``1..N`` vs ``2..N-1``) pass the slack test.
    """
    outers = [s.outer for s in shares if s is not None and s.outer is not None]
    if len(outers) < 2:
        return False
    (slo, shi), (dlo, dhi) = outers
    if abs(slo - dlo) > _BOUNDS_SLACK or abs(shi - dhi) > _BOUNDS_SLACK:
        return False
    return _linear_outer_coeff(src, strides) == _linear_outer_coeff(
        dst, strides
    )


def _box_overlap_fraction(dst_box: Box, src_box: Box) -> float:
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


def _boundary_cut(
    share: Optional[_Share],
    ref: StaticRef,
    env: Mapping[str, int],
    threads: int,
) -> tuple[float, float]:
    """The fraction of a chunk-local reuse pushed off-thread by the
    *extra* chunk boundaries of a chunked schedule, and the distance
    floor below which a reuse is spared.

    Plain static blocking (and ``dynamic``'s rotated blocks) cuts the
    outer range into at most ``T`` pieces, whose T-1 internal boundaries
    the model already neglects; ``static,k`` and ``guided`` cut it into
    ``C >= T`` pieces, and a unit-distance carried reuse crossing one of
    the ``C - T`` extra boundaries is consumed by the round-robin *next*
    thread — off-core.  The fraction of the ``n - 1`` iteration gaps
    that land on an extra boundary estimates the lost share.  The floor
    is the reference's accesses per outer iteration: a shorter reuse
    provably stays inside one outer iteration, so no boundary cuts it.
    """
    if share is None or share.outer is None:
        return 0.0, 0.0
    lo, hi = share.outer
    extra = sum(map(len, share.chunks)) - threads
    if extra <= 0:
        return 0.0, 0.0
    floor = float(ref.exec_count().evaluate(env)) / (hi - lo + 1)
    return min(1.0, extra / (hi - lo)), floor


def _thread_coverage(dst: Optional[_Share], priors: Collection[_Share]) -> float:
    """How much of a misaligned cross reuse actually stays on-thread.

    When the consuming nest is partitioned over a *different* axis than
    the producing nest (sp's signature pattern: component-axis sweeps
    after plane sweeps), the nearest toucher ran on another core — but
    each consumer thread usually re-touches a slice of data it already
    visited under the other partitioning.  That slice is a long-distance
    on-thread reuse, not a compulsory miss.  The fraction is estimated
    per thread as the best box overlap between the thread's part of the
    consuming reference (``dst``) and its part of any earlier reference
    of the same array (``priors``), diluted by that part's ownership
    density (a chunked schedule scatters a thread's chunks across a wide
    span it owns only partly), then averaged weighted by the iterations
    owned.
    """
    if dst is None:
        return 0.0
    weighted = 0.0
    total_w = 0.0
    for t, part in enumerate(dst.parts):
        if part is None:
            continue
        best = max(
            (
                _box_overlap_fraction(part[0], src[0]) * src[1]
                for src in (p.parts[t] for p in priors)
                if src is not None
            ),
            default=0.0,
        )
        weighted += dst.owned[t] * best
        total_w += dst.owned[t]
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

    # the per-thread table: one share per distinct (scope, subscripts)
    shares: dict[tuple, Optional[_Share]] = {}

    def share(ref: StaticRef) -> Optional[_Share]:
        key = (ref.scope, ref.subs, ref.nest in parallel)
        if key not in shares:
            shares[key] = _share(*key, env, threads, schedule)
        return shares[key]

    @cache
    def coverage(ref_id: int, kind: str) -> float:
        # cross_step reuse may come from any nest of the previous step,
        # cross_nest only from earlier nests of the same step
        dst = refs[ref_id]
        priors = {
            id(p): p
            for r in refs
            if r.array == dst.array
            and (kind == "cross_step" or r.nest < dst.nest)
            and r is not dst
            and (p := share(r)) is not None
        }
        return _thread_coverage(share(dst), priors.values())

    private: list[tuple[float, float]] = []
    shared: list[tuple[float, float]] = []
    cold_shared = 0.0
    cold_private = 0.0
    for cp in profile.classes:
        is_par = threads > 1 and cp.ref.nest in parallel
        cut, floor = (
            _boundary_cut(share(cp.ref), cp.ref, env, threads)
            if is_par
            else (0.0, 0.0)
        )
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
                boundary = count * cut if dist >= floor else 0.0
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
                and _partition_aligned(
                    src, cp.ref, (share(src), share(cp.ref)), strides
                )
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
                on_thread = count * (
                    coverage(cp.ref.ref_id, comp.kind) if affinity else 0.0
                )
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
