"""Symbolic reuse attribution: the static counterpart of the LRU stack.

For every reference (a *reuse class*, keyed by the same ``ref_id`` the
dynamic trace uses) the attributor walks a ladder of source candidates,
from temporally closest to farthest, and splits the reference's symbolic
access count across *components*:

``intra``
    the source executes earlier in the same loop iteration; distance is
    an exact distinct-element count over the statements in between;
``carried``
    the source executes ``delta`` iterations earlier in the same nest.
    Small innermost-carried distances are enumerated exactly; otherwise
    the distance is the measure of the data touched by a ``delta``-wide
    iteration window of the carried loop (a union of region hulls);
``sibling``
    same nest, structurally different scope (imperfect nests); hull
    windows over the shared loop prefix;
``cross_nest``
    the source is a previous top-level nest; distance is the footprint
    of everything executed between the two nests;
``cross_step``
    the source is the previous repetition of the whole body (time-step
    loops); distance is the wrap-around footprint;
``cold``
    whatever remains was never accessed before.

Every component carries an *estimate* and a conservative upper *bound*
(the property suite checks bound >= measured distance); both are
:class:`~repro.static.poly.Poly` over the program parameters, so the
whole profile evaluates at any input size without a trace.

The shift solver :func:`solve_shift` answers one normalised question
(group reuse in the sense of Razzak et al.'s static reuse profiles):
coefficient rows, offset difference, shared depth and textual order of
two references of one *uniformly generated set* — equal ``uniform``
keys, normalised once by :func:`~repro.static.model.build_model`.  The
attributor asks it within the sink's set only, once per question per
analysis (the ``shift`` memo).  Census of the other affine-distance
clients; none asks this question, so none moved:

* ``dependence_test.lane_terms`` / ``solve_sum``: bounded lane
  feasibility over concrete boxes, not a shift over symbolic bounds;
* ``analysis.constraint.pair_conflict`` (``DELTA``): one loop's symbolic
  coupling with pins, over the fusion frame's access kinds;
* ``analysis.dependence.body_dependence_graph`` (adjacency lists,
  ``list[list[int]]``): reads that coupling's sign only;
* ``multicore._linear_outer_coeff``: a linearised coefficient, no shift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from ..lang import Affine
from ..obs import metrics, span
from .model import LoopCtx, StaticModel, StaticRef, iterations
from .poly import ONE, Poly
from .regions import Hull, Regions, index_probe

#: innermost-carried distances up to this many iterations are enumerated
#: exactly instead of hull-estimated
_ENUM_MAX = 6

#: cap on (refs x shift) pairs for the exact enumeration
_ENUM_PAIRS = 512

#: cap on partial-coverage cross-nest slices per reuse class
_CROSS_SLICES = 4

#: cap on sibling coverage slices per reuse class
_SIBLING_SLICES = 6

#: cap on secondary constant-shift slices per reuse class (the
#: boundary rows the nearest shift leaves unserved)
_SECONDARY_SHIFTS = 2

#: each memo table of one model -> the ``analysis.static.*`` counter of
#: its computations; the answers it serves again count as ``<table>_hits``
MEMOS = {
    "compare": "compares",
    "eliminate": "eliminate",
    "finalize": "finalize",
    "union": "union_hulls",
    "overlap": "hulls_overlap",
    "measure": "measures",
    "hull": "hulls",
    "window": "window_distance",
    "span": "span_measure",
    "subtree": "subtree_footprint",
    "exec_count": "exec_counts",
    "shift": "shift_solves",
}


@dataclass(frozen=True)
class Component:
    """One attributed slice of a reuse class's accesses."""

    kind: str  # intra | carried | sibling | cross_nest | cross_step
    source: Optional[int]  # ref_id of the reusing source, if known
    count: Poly  # accesses per body repetition
    distance: Poly  # estimated reuse distance (elements)
    bound: Poly  # conservative upper bound on the distance
    exact: bool


@dataclass(frozen=True)
class ClassProfile:
    """All components of one reuse class plus its cold remainder."""

    ref: StaticRef
    components: tuple[Component, ...]
    cold: Poly  # per-body-repetition cold accesses


def shared_depth(src: StaticRef, sink: StaticRef) -> int:
    """Length of the common loop-*identity* prefix of two references.

    After fusion several sibling loops reuse an index name, so name
    equality is not shared ancestry: iterating ``j`` in the second of two
    fused ``j`` loops does not revisit the first loop's iteration space.
    Everything temporal (shift validity, window footprints, sibling
    coverage) must reason at this identity depth.
    """
    depth = 0
    for a, b in zip(src.scope, sink.scope):
        if a.loop_id != b.loop_id or a.loop_id < 0:
            break
        depth += 1
    return depth


def shift_question(src: StaticRef, sink: StaticRef) -> tuple:
    """The normalised question :func:`solve_shift` answers for two
    references of one uniformly generated set (equal ``uniform`` keys):
    the coefficient rows, the offset difference (sink minus source), the
    shared depth and whether the source is textually at or after the
    sink."""
    offset = tuple(k - s for s, k in zip(src.offset, sink.offset))
    return sink.rows, offset, shared_depth(src, sink), src.pos >= sink.pos


def solve_shift(
    rows: tuple[tuple[int | Fraction, ...], ...],
    offset: tuple[int | Fraction, ...],
    depth: int,
    later: bool,
) -> Optional[tuple[int, ...]]:
    """Iteration shift ``delta`` with ``src(i - delta) == sink(i)``.

    Per subscript ``d``: ``sum_l rows[d][l] * delta[l] == -offset[d]``,
    solved dimension by dimension with a fixpoint over forced entries;
    unforced entries (multi-index dimensions, unconstrained indices)
    default to zero, the closest candidate, then every row is checked.
    A fractional solution is no shift.  Returns the outer-first shift
    vector, or None when no constant shift reproduces the sink's element.

    A shift is only returned if it is temporally valid.  Validity is
    judged on the *shared-ancestry* prefix (see :func:`shared_depth`):
    the shared entries must be lexicographically positive, or all zero
    with the source textually earlier (``later`` false).  Entries beyond
    the shared depth belong to divergent sibling loops — they select
    *which* source instance matches the element and carry no temporal
    constraint (the whole divergent subtree executes before or after the
    sink's, decided by position alone).
    """
    delta: list[Optional[int | Fraction]] = [None] * len(rows[0])
    changed = True
    while changed:
        changed = False
        for coeffs, k in zip(rows, offset):
            unknown = [
                l for l, c in enumerate(coeffs) if c != 0 and delta[l] is None
            ]
            if len(unknown) == 1:
                l = unknown[0]
                acc = sum(
                    c * delta[j] for j, c in enumerate(coeffs)
                    if c != 0 and j != l
                )
                delta[l] = Fraction(-k - acc, coeffs[l])
                changed = True
    out = [0 if d is None else d for d in delta]
    for coeffs, k in zip(rows, offset):
        if sum(c * out[l] for l, c in enumerate(coeffs) if c != 0) != -k:
            return None
    if any(d.denominator != 1 for d in out):
        return None
    shift = [int(d) for d in out]
    if later and not any(shift[:depth]):
        # self/later source in the same shared iteration: the closest
        # valid occurrence is one iteration of the innermost *shared*
        # free loop back (bumping a divergent level would not move the
        # source earlier in time)
        free = [l for l in range(depth) if not any(row[l] for row in rows)]
        if not free:
            return None
        shift[max(free)] = 1
    lead = next((s for s in shift[:depth] if s), 0)
    return None if lead < 0 else tuple(shift)


class _Attributor:
    def __init__(
        self, model: StaticModel, steps: int, regions: Regions
    ) -> None:
        self.model = model
        self.steps = steps
        self.assume = regions.assume
        #: the analysis's memo tables; the ladder's own questions (windows,
        #: span and subtree measures, exec counts) sit beside the region
        #: operations'
        self.regions = regions
        self.shift_calls = 0
        #: same-array pairs outside the sink's uniformly generated set:
        #: no constant shift exists, so the solver is never asked
        self.ungrouped_pairs = 0
        self.same_array = Counter((r.nest, r.array) for r in model.refs)
        #: finalized per-array union hull of each top-level nest
        self.nest_hulls: list[dict[str, Hull]] = [
            regions.footprint_by_array(nest) for nest in model.nests
        ]

    def iterations(self, scope: tuple[LoopCtx, ...]) -> Poly:
        """:func:`~repro.static.model.iterations` (a reference's
        :meth:`~repro.static.model.StaticRef.exec_count`), computed once
        per scope."""
        return self.regions.memo("exec_count", scope, iterations, scope)

    def publish(self) -> dict[str, int]:
        """End of the model: report the work as ``analysis.static.*``
        counters — the shift rung's calls and ungrouped pairs, per memo
        its computations and its hits."""
        work = {
            "shift_candidates": self.shift_calls,
            "ungrouped_pairs": self.ungrouped_pairs,
        }
        for table, name in MEMOS.items():
            work[name] = len(self.regions.tables[table])
            work[f"{table}_hits"] = self.regions.hits[table]
        for name, calls in work.items():
            metrics.inc(f"analysis.static.{name}", calls)
        return work

    # -- span footprints --------------------------------------------------

    def span_measure(self, nests: Sequence[int]) -> Poly:
        """Footprint of every reference in the given top-level nests."""
        nests = tuple(nests)
        return self.regions.memo("span", nests, self._span_measure, nests)

    def _span_measure(self, nests: tuple[int, ...]) -> Poly:
        grouped: dict[str, list[Hull]] = {}
        for k in nests:
            for name, hull in self.nest_hulls[k].items():
                grouped.setdefault(name, []).append(hull)
        merged = {
            name: self.regions.union_hulls(hs) for name, hs in grouped.items()
        }
        return self.regions.measure_sum(merged)

    # -- rung 1: same-scope constant-shift reuse --------------------------

    def shift_candidates(
        self, sink: StaticRef
    ) -> list[tuple[tuple[int, ...], StaticRef, Poly, tuple]]:
        """All same-nest constant-shift sources, nearest-first.

        Each entry is ``(shift, src, count, validity)`` where ``validity``
        holds the per-level affine interval of sink iterations whose
        shifted source iteration exists (``[src.lo + s, src.hi + s] ∩
        [sink.lo, sink.hi]``, possibly guard-narrowed after fusion
        peeling) and ``count`` is its measure.  Candidates whose validity
        is provably empty at some level never supply a reuse and are
        dropped.

        Ordering: temporal closeness is decided by the shared-ancestry
        shift; divergent-level entries only pick the matching instance.
        Crossing into a sibling subtree at the divergence level is
        farther than any same-subtree shift of that level (the sibling
        ran before the sink's whole subtree started), so the sentinel is
        infinity: (0, k) < (0, inf) < (1, ...) — a same-loop source k
        iterations back still beats one in an earlier fused sibling
        loop, which beats going back a full iteration of the shared
        prefix.
        """
        self.shift_calls += 1
        group = self.model.uniform_sets[sink.nest, sink.uniform]
        self.ungrouped_pairs += self.same_array[sink.nest, sink.array] - len(group)
        cands: list[tuple[tuple, tuple[int, ...], StaticRef, Poly, tuple]] = []
        for src in group:
            question = shift_question(src, sink)
            shift = self.regions.memo("shift", question, solve_shift, *question)
            if shift is None:
                continue
            validity = self._shift_validity(src, sink, shift)
            if validity is None:
                continue  # provably disjoint iteration ranges
            count = ONE
            for lo, hi in validity:
                count = count * Poly.from_affine(hi - lo + 1)
            depth = question[2]
            tshift: tuple[float, ...] = tuple(shift[:depth])
            if depth < len(sink.scope):
                tshift = tshift + (float("inf"),)
            key = (tshift, src.pos >= sink.pos, -src.pos)
            cands.append((key, shift, src, count, validity))
        cands.sort(key=lambda t: t[0])
        return [(s, r, c, v) for _, s, r, c, v in cands]

    def _shift_validity(
        self, src: StaticRef, sink: StaticRef, shift: tuple[int, ...]
    ) -> Optional[tuple]:
        """Per-level interval of sink iterations the shift can serve."""
        ivs: list[tuple[Affine, Affine]] = []
        for sctx, kctx, s in zip(src.scope, sink.scope, shift):
            lo, _ = self.regions.affine_max(sctx.lo + s, kctx.lo)
            hi, _ = self.regions.affine_min(sctx.hi + s, kctx.hi)
            sign = (hi - lo + 1).sign(self.assume)
            if sign is not None and sign <= 0:
                return None
            ivs.append((lo, hi))
        return tuple(ivs)

    def _box_overlap_count(self, a: tuple, b: tuple) -> Poly:
        """Measure of the intersection of two validity boxes (0 if empty)."""
        out = ONE
        for (alo, ahi), (blo, bhi) in zip(a, b):
            lo, _ = self.regions.affine_max(alo, blo)
            hi, _ = self.regions.affine_min(ahi, bhi)
            width = hi - lo + 1
            sign = width.sign(self.assume)
            if sign is not None and sign <= 0:
                return Poly()
            if sign is None:
                env = {v: 10**4 for v in width.variables()}
                if width.evaluate(env) <= 0:
                    return Poly()
            out = out * Poly.from_affine(width)
        return out

    def intra_distance(
        self, sink: StaticRef, src: StaticRef
    ) -> Optional[tuple[Poly, Poly, bool]]:
        """Distinct elements between two positions of the same iteration."""
        nest = self.model.nests[sink.nest]
        between = [r for r in nest if src.pos < r.pos < sink.pos]
        if any(r.scope_indices() != sink.scope_indices() for r in between):
            return None  # imperfect nest: fall back to hulls
        elements: set[tuple[str, tuple[Affine, ...]]] = set()
        reused = (sink.array, sink.subs)
        for r in between:
            key = (r.array, r.subs)
            if key != reused:
                elements.add(key)
        d = Poly.constant(len(elements))
        return d, d, True

    def enum_distance(
        self, sink: StaticRef, src: StaticRef, shift: tuple[int, ...]
    ) -> Optional[tuple[Poly, Poly, bool]]:
        """Exact interior enumeration for small innermost-carried shifts.

        Walks every (reference, iteration-shift) access strictly between
        the source and the sink and counts distinct elements as symbolic
        subscript forms.  Exact for 1-D streaming kernels (the property
        suite pins ``A[i] = A[i-1] + B[i]`` at distance 0).
        """
        if not sink.scope or any(s for s in shift[:-1]):
            return None
        d = shift[-1]
        if d == 0 or d > _ENUM_MAX:
            return None
        nest = self.model.nests[sink.nest]
        if any(r.scope_indices() != sink.scope_indices() for r in nest):
            return None
        if len(nest) * (d + 1) > _ENUM_PAIRS:
            return None
        iname = sink.scope[-1].index
        ivar = Affine.var(iname)
        reused = (sink.array, sink.subs)
        elements: set[tuple[str, tuple[Affine, ...]]] = set()
        for t in range(d + 1):
            for r in nest:
                if t == d and r.pos <= src.pos:
                    continue
                if t == 0 and r.pos >= sink.pos:
                    continue
                subs = tuple(
                    s.substitute({iname: ivar - t}) if s.coeff(iname) else s
                    for s in r.subs
                )
                key = (r.array, subs)
                if key != reused:
                    elements.add(key)
        n = Poly.constant(len(elements))
        return n, n, True

    def window_distance(
        self, sink: StaticRef, level: int, width: int
    ) -> tuple[Poly, bool]:
        """Measure of the data a ``width``-iteration window of loop
        ``level`` touches, minus the reused element itself.

        Only references that *actually share* the carrying loop (same
        loop identity chain through ``level``) execute inside the window;
        same-named sibling loops of a fused nest do not.

        Computed once per ``(nest, anchor, width)``, the anchor being the
        sink's loops through ``level``: the window's hulls eliminate every
        deeper level, so the sink's inner loops cannot change the answer.
        """
        anchor = sink.scope[: level + 1]
        return self.regions.memo(
            "window", (sink.nest, anchor, width),
            self._window_distance, sink.nest, anchor, width,
        )

    def _window_distance(
        self, nest: int, anchor: tuple[LoopCtx, ...], width: int
    ) -> tuple[Poly, bool]:
        level = len(anchor) - 1
        probe = index_probe(anchor, self.model.params)
        grouped: dict[str, list[Hull]] = {}
        exact = True
        for r in self.model.nests[nest]:
            if len(r.scope) <= level or any(
                a.loop_id != b.loop_id for a, b in zip(r.scope, anchor)
            ):
                continue
            h = self.regions.ref_hull(r, start=level, window=(level, width))
            grouped.setdefault(r.array, []).append(h)
        out = Poly()
        for name, hs in sorted(grouped.items()):
            for g in self.regions.union_disjoint(hs, probe):
                u = self.regions.finalize(g, anchor)
                exact = exact and u.exact
                out = out + self.regions.measure(u)
        return out - 1, exact

    # -- rung 2: sibling references in an imperfect nest ------------------

    def between_distance(
        self,
        sink: StaticRef,
        src_pos: int,
        depth: int,
        window_loop: Optional[int] = None,
    ) -> tuple[Poly, bool]:
        """Footprint of the references executed between two positions of
        the same iteration of the shared loop prefix (length ``depth``).

        Each in-between reference contributes the region it covers per
        shared iteration: its own divergent loop levels are eliminated,
        the shared anchors stay symbolic and cancel in the widths.
        ``window_loop`` (see :meth:`_end_meet_loop`) restricts references
        inside that loop to a single iteration — the source access
        happens on the loop's last pass, so only one iteration of it
        separates source from sink.
        """
        anchor = sink.scope[:depth]
        probe = index_probe(sink.scope, self.model.params)
        grouped: dict[str, list[Hull]] = {}
        pins: dict[str, Poly] = {}
        exact = True
        for r in self.model.nests[sink.nest]:
            if not (src_pos <= r.pos <= sink.pos):
                continue
            rd = 0
            for a, b in zip(r.scope, anchor):
                if a.loop_id != b.loop_id:
                    break
                rd += 1
            window = None
            if (
                window_loop is not None
                and len(r.scope) > depth
                and r.scope[depth].loop_id == window_loop
            ):
                window = (depth, 1)
                # the meet happens on the loop's final pass, so the
                # surviving window anchor — r's own index, absent from
                # the sink's scope — is pinned to the loop's upper bound
                ctx = r.scope[depth]
                pins[ctx.index] = Poly.from_affine(ctx.hi)
                for inner in r.scope:
                    if inner.index not in probe:
                        probe[inner.index] = int(inner.hi.evaluate(probe))
            grouped.setdefault(r.array, []).append(
                self.regions.ref_hull(r, start=rd, window=window)
            )
        out = Poly()
        for name, hs in sorted(grouped.items()):
            for g in self.regions.union_disjoint(hs, probe):
                u = self.regions.finalize(g, sink.scope)
                exact = exact and u.exact
                out = out + self.regions.measure(u)
        if pins:
            out = out.substitute(pins)
        return out - 1, exact

    def diagonal_between_distance(
        self, sink: StaticRef, src: StaticRef, depth: int
    ) -> tuple[Poly, Poly]:
        """Expected footprint between diagonal accesses of sibling loops.

        When a zero-shift source lives in a *different* loop of the same
        shared prefix iteration (fused siblings), the reuse runs
        iteration ``i`` of the source loop to iteration ``i`` of the
        sink loop: the source's subtree still executes its remaining
        ``hi - i`` iterations and the sink's subtree has already
        executed its first ``i - lo`` before the reuse completes — on
        average half of each subtree's per-prefix footprint, plus every
        subtree strictly between the two.  Returns ``(mean, bound)``
        where the bound charges both subtrees in full.
        """
        anchor = sink.scope[:depth]
        probe = index_probe(sink.scope, self.model.params)
        src_top = src.scope[depth].loop_id if len(src.scope) > depth else -1
        sink_top = (
            sink.scope[depth].loop_id if len(sink.scope) > depth else -1
        )
        # the two subtrees' windows are disjoint slices of the iteration
        # range (the source's tail vs. the sink's head), so arrays they
        # share must be charged per subtree, not unioned across them
        between: dict[str, list[Hull]] = {}
        for r in self.model.nests[sink.nest]:
            rd = 0
            for a, b in zip(r.scope, anchor):
                if a.loop_id != b.loop_id:
                    break
                rd += 1
            if rd < depth:
                continue  # does not run under the shared prefix
            top = r.scope[depth].loop_id if len(r.scope) > depth else -2
            if top in (src_top, sink_top):
                continue  # charged via the memoized subtree footprints
            if src.pos <= r.pos <= sink.pos:
                between.setdefault(r.array, []).append(
                    self.regions.ref_hull(r, start=rd)
                )
        mean = Poly()
        bound = Poly()
        for top in (src_top, sink_top):
            sub = self._subtree_footprint(sink, depth, top)
            mean = mean + sub * Fraction(1, 2)
            bound = bound + sub
        for name, hs in sorted(between.items()):
            for g in self.regions.union_disjoint(hs, probe):
                measure = self.regions.measure(
                    self.regions.finalize(g, sink.scope)
                )
                mean = mean + measure
                bound = bound + measure
        return mean - 1, bound - 1

    def _subtree_footprint(
        self, sink: StaticRef, depth: int, top: int
    ) -> Poly:
        """Per-prefix-iteration footprint of one divergent subtree.

        Keyed on ``(nest, depth, top)``: the measure only references
        shared anchor indices, so every sink of the nest sees the same
        value (diagonal sources reuse it).
        """
        key = (sink.nest, depth, top)
        return self.regions.memo(
            "subtree", key, self._subtree_measure, sink, depth, top
        )

    def _subtree_measure(self, sink: StaticRef, depth: int, top: int) -> Poly:
        anchor = sink.scope[:depth]
        probe = index_probe(sink.scope, self.model.params)
        grouped: dict[str, list[Hull]] = {}
        for r in self.model.nests[sink.nest]:
            rd = 0
            for a, b in zip(r.scope, anchor):
                if a.loop_id != b.loop_id:
                    break
                rd += 1
            if rd < depth:
                continue
            r_top = r.scope[depth].loop_id if len(r.scope) > depth else -2
            if r_top != top:
                continue
            grouped.setdefault(r.array, []).append(
                self.regions.ref_hull(r, start=rd)
            )
        out = Poly()
        for name, hs in sorted(grouped.items()):
            for g in self.regions.union_disjoint(hs, probe):
                out = out + self.regions.measure(
                    self.regions.finalize(g, sink.scope)
                )
        return out

    def _end_meet_loop(
        self,
        src: StaticRef,
        sink_dims: Sequence[tuple[Affine, Affine]],
        depth: int,
    ) -> Optional[int]:
        """loop_id of src's divergent loop when the meet is at its end.

        A same-iteration sibling source like ``X[j, i-1]`` (j over
        ``4..N-1``) meets a boundary sink ``X[N-1, i-1]`` only at its
        *last* j iteration — so the data between the two accesses is
        whatever runs after the j loop finishes, not the loop's whole
        footprint.  Detected when src has exactly one divergent level and
        every subscript depending on its index pins the sink to the value
        the loop reaches last; callers then count that loop's in-between
        references for a single iteration.
        """
        if len(src.scope) != depth + 1:
            return None
        ctx = src.scope[depth]
        hit = False
        for d, sub in enumerate(src.subs):
            c = sub.coeff(ctx.index)
            if c == 0:
                continue
            last = sub.substitute({ctx.index: ctx.hi if c > 0 else ctx.lo})
            slo, shi = sink_dims[d]
            if self.regions.compare(slo, last) != 0:
                return None
            if self.regions.compare(shi, last) != 0:
                return None
            hit = True
        return ctx.loop_id if hit else None

    def _dims_meet(
        self,
        a: Sequence[tuple[Affine, Affine]],
        b: Sequence[tuple[Affine, Affine]],
        scope: Sequence[LoopCtx],
    ) -> Optional[tuple[Poly, bool]]:
        """Box-intersection measure of two raw dim lists, or None when
        provably (or at the probe size) empty.

        The dims may mention the shared anchor indices symbolically —
        that is the point: ``[i-1, i-1]`` meets ``[i, i]`` nowhere, which
        the finalized hulls of the old overlap test could not see.
        """
        index_names = {c.index for c in scope}
        out = ONE
        exact = True
        for (alo, ahi), (blo, bhi) in zip(a, b):
            lo, e1 = self.regions.affine_max(alo, blo)
            hi, e2 = self.regions.affine_min(ahi, bhi)
            width = hi - lo + 1
            sign = width.sign(self.assume)
            if sign is not None and sign <= 0:
                return None
            if sign is None:
                env = {v: 10**4 for v in width.variables()}
                if width.evaluate(env) <= 0:
                    return None
                exact = False
            if width.depends_on(index_names):
                # a triangular overlap: take the widest shared iteration
                _, width = self.regions.eliminate(width, tuple(scope), 0, None)
                exact = False
            exact = exact and e1 and e2
            out = out * Poly.from_affine(width)
        return out, exact

    def sibling(
        self, sink: StaticRef, remainder: Poly
    ) -> list[tuple[StaticRef, Poly, Poly, Poly, bool]]:
        """Coverage slices ``(src, count, dist, bound, exact)`` from
        structurally different references of the same nest.

        For each candidate source the test is anchored at the deepest
        shared loop: does the source's per-shared-iteration region (for a
        textually earlier source) or its previous-iteration region (for
        any source) provably meet the sink's per-iteration element set?
        Each meet claims ``trips(shared) * |intersection|`` accesses —
        the evaluator clamps the running total against the class size.
        """
        probe = {p: 10**4 for p in self.model.params}
        rem = float(remainder.evaluate(probe))
        if rem <= 0.5:
            return []
        out: list[tuple[StaticRef, Poly, Poly, Poly, bool]] = []
        candidates = sorted(
            (
                r
                for r in self.model.nests[sink.nest]
                if r.array == sink.array
                and r.ref_id != sink.ref_id
                and r.uniform != sink.uniform  # decided by the shift rung
            ),
            key=lambda r: (r.pos >= sink.pos, abs(r.pos - sink.pos)),
        )
        for src in candidates:
            depth = shared_depth(src, sink)
            if depth == 0:
                continue
            shared = sink.scope[:depth]
            trips = self.iterations(shared)
            sink_dims = tuple(
                self.regions.eliminate(s, sink.scope, depth, None)
                for s in sink.subs
            )
            src_dims = tuple(
                self.regions.eliminate(s, src.scope, depth, None)
                for s in src.subs
            )
            slices: list[tuple[Poly, Poly, Poly, bool]] = []
            if src.pos < sink.pos:
                # same shared iteration, textually earlier
                met = self._dims_meet(src_dims, sink_dims, shared)
                if met is not None:
                    measure, mexact = met
                    window_loop = self._end_meet_loop(
                        src, sink_dims, depth
                    )
                    dist, dexact = self.between_distance(
                        sink, src.pos, depth, window_loop=window_loop
                    )
                    slices.append(
                        (trips * measure, dist, dist, mexact and dexact
                         and window_loop is None)
                    )
            # previous iteration of the innermost shared loop (any
            # textual position: the whole subtree ran last iteration)
            anchor = shared[-1].index
            back = {anchor: Affine.var(anchor) - 1}
            prev_dims = tuple(
                (lo.substitute(back), hi.substitute(back))
                for lo, hi in src_dims
            )
            met = self._dims_meet(prev_dims, sink_dims, shared)
            if met is not None:
                measure, _ = met
                dist, _ = self.window_distance(sink, depth - 1, 1)
                bound, _ = self.window_distance(sink, depth - 1, 2)
                slices.append((trips * measure, dist, bound, False))
            for count, dist, bound, exact in slices:
                got = float(count.evaluate(probe))
                if got <= 0:
                    continue
                out.append((src, count, dist, bound, exact))
                rem -= got
                if rem <= 0.5 or len(out) >= _SIBLING_SLICES:
                    return out
        return out

    # -- rungs 3-4: cross-nest and cross-step -----------------------------

    def _nonempty(self, width: Affine) -> bool:
        sign = width.sign(self.assume)
        if sign is not None:
            return sign > 0
        env = {v: 10**4 for v in width.variables()}
        return width.evaluate(env) > 0

    def _narrow_sink(self, sink: StaticRef, box: tuple) -> StaticRef:
        """A copy of ``sink`` whose scope is restricted to ``box``."""
        scope = tuple(
            LoopCtx(
                c.index, lo, hi, Poly.from_affine(hi - lo + 1),
                exact=c.exact, loop_id=c.loop_id,
            )
            for c, (lo, hi) in zip(sink.scope, box)
        )
        return replace(sink, scope=scope)

    def _uncovered_boxes(
        self, sink: StaticRef, covered: Optional[tuple]
    ) -> list[tuple]:
        """Iteration boxes of ``sink`` the shift rung did not serve.

        Standard box-difference decomposition: one slab per level and
        side, levels before it restricted to the covered interval,
        levels after it at full range.  Empty slabs (provably, or at the
        probe size) are dropped.
        """
        full = tuple((c.lo, c.hi) for c in sink.scope)
        if covered is None:
            return [full]
        boxes: list[tuple] = []
        for level, (flo, fhi) in enumerate(full):
            clo, chi = covered[level]
            prefix = covered[:level]
            suffix = full[level + 1:]
            for lo, hi in ((flo, clo - 1), (chi + 1, fhi)):
                if self._nonempty(hi - lo + 1):
                    boxes.append(prefix + ((lo, hi),) + suffix)
        return boxes

    def cross_nest(
        self, sink: StaticRef, boxes: Sequence[tuple]
    ) -> list[tuple[int, Poly, Poly, bool]]:
        """Coverage slices ``(nest, count, distance, covered)``.

        ``boxes`` are the iteration slabs still unserved after the shift
        rung — intersecting earlier nests with the *unserved* element
        region (not the sink's full region) is what keeps a genuinely
        cold boundary slice cold: for ``LHS[2, i-1, j, k]`` only the
        ``i = 2`` slab (element row 1) is left, and no earlier nest
        touches row 1 even though every one overlaps rows 2..N-1.

        Per slab, scans earlier nests nearest-first.  A nest whose
        footprint provably contains the slab's region covers the whole
        slab and ends that slab's scan; a partially overlapping nest
        covers only its box intersection, and the scan continues.
        """
        slices: list[tuple[int, Poly, Poly, bool]] = []
        for box in boxes:
            scope = tuple(
                LoopCtx(
                    c.index, lo, hi, Poly.from_affine(hi - lo + 1),
                    exact=c.exact, loop_id=c.loop_id,
                )
                for c, (lo, hi) in zip(sink.scope, box)
            )
            dims = tuple(
                self.regions.eliminate(s, scope, 0, None) for s in sink.subs
            )
            hull = self.regions.finalize(
                Hull(sink.array, dims, all(c.exact for c in scope)), scope
            )
            piece_count = ONE
            for lo, hi in box:
                piece_count = piece_count * Poly.from_affine(hi - lo + 1)
            for k in range(sink.nest - 1, -1, -1):
                src_hull = self.nest_hulls[k].get(sink.array)
                if src_hull is None:
                    continue
                if self.regions.hulls_overlap(src_hull, hull) is False:
                    continue
                dist = self.span_measure(range(k, sink.nest + 1)) - 1
                if self.regions.hull_contains(src_hull, hull):
                    slices.append((k, piece_count, dist, True))
                    break
                count = self.regions.intersect_measure(src_hull, hull)
                slices.append((k, count, dist, False))
                if len(slices) >= _CROSS_SLICES:
                    return slices
        return slices

    def cross_step(self, sink: StaticRef) -> Poly:
        last = len(self.model.nests) - 1
        for k in range(last, sink.nest - 1, -1):
            src_hull = self.nest_hulls[k].get(sink.array)
            if src_hull is None:
                continue
            sink_hull = self.regions.finalize(
                self.regions.ref_hull(sink), sink.scope
            )
            if self.regions.hulls_overlap(src_hull, sink_hull) is False:
                continue
            span = list(range(k, last + 1)) + list(range(0, sink.nest + 1))
            return self.span_measure(span) - 1
        # the sink's own nest always overlaps itself
        span = list(range(sink.nest, last + 1)) + list(
            range(0, sink.nest + 1)
        )
        return self.span_measure(span) - 1

    # -- the ladder -------------------------------------------------------

    def _shift_component(
        self,
        sink: StaticRef,
        src: StaticRef,
        shift: tuple[int, ...],
        count: Poly,
        count_exact: bool = True,
    ) -> Component:
        depth = shared_depth(src, sink)
        result = None
        if not any(shift[:depth]):
            # same shared iteration: reuse within one traversal of the
            # (possibly divergent) subtrees between src and sink
            kind = "intra"
            if not any(shift) and depth == len(sink.scope):
                result = self.intra_distance(sink, src)
            if result is None and depth < len(sink.scope):
                # fused-sibling diagonal: src's loop finishes and sink's
                # warms up between the paired accesses
                dist, bnd = self.diagonal_between_distance(sink, src, depth)
                result = (dist, bnd, False)
            if result is None:
                dist, dexact = self.between_distance(sink, src.pos, depth)
                result = (dist, dist, dexact)
        else:
            kind = "carried"
            if depth == len(sink.scope) == len(src.scope):
                result = self.enum_distance(sink, src, shift)
            if result is None:
                level = next(l for l, s in enumerate(shift[:depth]) if s)
                w = abs(shift[level])
                dist, dexact = self.window_distance(sink, level, max(w, 1))
                bound, bexact = self.window_distance(sink, level, w + 1)
                result = (dist, bound, dexact and bexact and w <= 1)
        dist, bound, exact = result
        return Component(
            kind, src.ref_id, count, dist, bound, exact and count_exact
        )

    def attribute(self, sink: StaticRef) -> ClassProfile:
        components: list[Component] = []
        remainder = self.iterations(sink.scope)
        probe = {p: 10**4 for p in self.model.params}

        def live(poly: Poly) -> bool:
            return not poly.is_zero() and float(poly.evaluate(probe)) > 0.5

        cands = self.shift_candidates(sink)
        covered: Optional[tuple] = None
        if cands:
            shift, src, count, covered = cands[0]
            components.append(
                self._shift_component(sink, src, shift, count)
            )
            remainder = remainder - count
        # secondary shifts: a stencil's nearest source rarely serves every
        # iteration (P[j+1,i] leaves the j=1 row of P[j,i] unserved); the
        # next-nearest shift (P[j,i+1], one outer iteration back) usually
        # does, at one-sweep distance instead of a whole-body footprint.
        # Each secondary claims only its validity outside the primary box.
        taken = 0
        for shift, src, count, validity in cands[1:]:
            if taken >= _SECONDARY_SHIFTS or not live(remainder):
                break
            overlap = (
                self._box_overlap_count(validity, covered)
                if covered is not None
                else Poly()
            )
            fresh = count - overlap
            if float(fresh.evaluate(probe)) <= 0.5:
                continue
            components.append(
                self._shift_component(
                    sink, src, shift, fresh, count_exact=False
                )
            )
            remainder = remainder - fresh
            taken += 1

        # rungs below the shift ladder reason about the *unserved* slabs
        # of the iteration space, not the sink's full region: a served
        # row must not make a cold boundary row look warm (and vice
        # versa a sibling must meet the leftover rows, not just any row)
        boxes = self._uncovered_boxes(sink, covered)

        for box in boxes:
            if not live(remainder):
                break
            vsink = self._narrow_sink(sink, box)
            for src, count, dist, bound, exact in self.sibling(
                vsink, remainder
            ):
                components.append(
                    Component(
                        "sibling", src.ref_id, count, dist, bound, exact
                    )
                )
                remainder = remainder - count

        if live(remainder):
            for k, count, dist, contained in self.cross_nest(sink, boxes):
                components.append(
                    Component(
                        "cross_nest", self.model.nests[k][-1].ref_id,
                        count, dist, dist, contained,
                    )
                )
                remainder = remainder - count

        if live(remainder) and self.steps > 1:
            dist = self.cross_step(sink)
            components.append(
                Component("cross_step", None, remainder, dist, dist, False)
            )
            # the cross-step component replays the remainder on steps 2..S;
            # the remainder itself stays cold on step 1 (see profile
            # multipliers), so it is NOT zeroed here.

        return ClassProfile(sink, tuple(components), remainder)


def attribute_model(
    model: StaticModel, steps: int, regions: Regions
) -> tuple[ClassProfile, ...]:
    """Attribute every reuse class of ``model``, asking ``regions`` (one
    analysis's memo tables) every repeated question."""
    with span("attribute", refs=len(model.refs)) as sp:
        attributor = _Attributor(model, steps, regions)
        classes = tuple(attributor.attribute(ref) for ref in model.refs)
        sp.attrs.update(
            components=sum(len(c.components) for c in classes),
            **attributor.publish(),
        )
    return classes
