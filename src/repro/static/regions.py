"""Symbolic array-region hulls and their measures.

The reuse-distance of a long-range reuse is the volume of data touched
between the two accesses.  For affine loop nests that volume is a union
of per-array rectangular *hulls*: per dimension an affine ``[lo, hi]``
obtained by interval arithmetic over the enclosing loop bounds — the
one elimination of :func:`repro.lang.scope.eliminate`, which the IR
linter applies too, with its *iteration window* so "the data touched by
``w`` consecutive iterations of loop level ``l``" is expressible.  Hulls
over-approximate (a triangular footprint gets its bounding box), which
keeps every derived distance a conservative upper estimate — the
direction the property suite certifies.

Guarded and triangular loops resolve through the same conservative
interval machinery as :mod:`repro.analysis.constraint`'s alignment math:
indeterminate symbolic comparisons fall back to a large-parameter probe
(``_PROBE``, the one spelling of it in the static analysis) and mark the
hull inexact.  Measures of array space (:meth:`Hull.measure`) live here;
iteration counts are :func:`~repro.static.model.iterations`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import (
    Callable,
    Hashable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from ..lang import Affine, Assumptions
from ..lang.scope import eliminate
from .model import LoopCtx, StaticRef
from .poly import ONE, Poly

#: probe point for indeterminate comparisons: large enough that the
#: dominant parameter term decides
_PROBE = 10**4

#: a memo miss (``None`` is a valid answer: an undecided comparison)
_MISS = object()


def _probe_env(forms: Iterable[Affine]) -> dict[str, int]:
    names: set[str] = set()
    for f in forms:
        names.update(f.variables())
    return {n: _PROBE for n in names}


class Hull(NamedTuple):
    """A rectangular symbolic region of one array.

    ``dims`` holds inclusive affine ``[lo, hi]`` per dimension; the forms
    mention program parameters only (callers eliminate loop indices via
    :func:`ref_hull` before unioning across references).  A tuple, like
    :class:`~repro.lang.Affine`: hulls key the region memos, so hashing
    and equality run in C (equality is structural).
    """

    array: str
    dims: tuple[tuple[Affine, Affine], ...]
    exact: bool = True

    def measure(self) -> Poly:
        """Element count ``prod(hi - lo + 1)`` as a polynomial."""
        out = ONE
        for lo, hi in self.dims:
            out = out * Poly.from_affine(hi - lo + 1)
        return out


def ref_hull(
    ref: StaticRef,
    start: int = 0,
    window: Optional[tuple[int, int]] = None,
) -> Hull:
    """The hull of ``ref``'s accesses over scope levels >= ``start``.

    Levels outside ``start`` (and the window anchor) survive as symbols;
    use :meth:`Regions.finalize` to reduce the hull to parameter-only
    widths.
    """
    dims = tuple(eliminate(s, ref.scope, start, window) for s in ref.subs)
    exact = all(c.exact for c in ref.scope[start:])
    return Hull(ref.array, dims, exact)


def index_probe(
    scope: Sequence[LoopCtx], params: Iterable[str]
) -> dict[str, int]:
    """A probe assignment giving every loop index its mid-range value.

    Parameter-only :class:`~repro.lang.Assumptions` cannot compare forms
    that mention loop indices (``i - 2`` vs ``1``), but the scope knows
    each index's range; anchoring indices at their midpoints (outer
    levels first, so triangular bounds resolve) lets overlap tests make a
    generic-iteration decision instead of giving up.
    """
    env = {p: _PROBE for p in params}
    for ctx in scope:
        lo = ctx.lo.evaluate(env)
        hi = ctx.hi.evaluate(env)
        env[ctx.index] = int((lo + hi) // 2)
    return env


def _held_hull(
    ref: StaticRef, start: int, window: Optional[tuple[int, int]]
) -> tuple[StaticRef, Hull]:
    return ref, ref_hull(ref, start, window)


class Regions:
    """The region operations of one analysis, each question answered once.

    The reuse ladder asks the same pure questions of the same frozen
    values over and over (a fused sp variant compared a few hundred pairs
    of affine forms two million times).  A ``Regions`` holds the
    analysis's :class:`~repro.lang.Assumptions` and one memo table per
    question, keyed on the values themselves — forms, hulls, loop scopes,
    all tuples that hash in C (only :meth:`ref_hull` keys on a
    reference's identity, and its entries hold the reference).  The attributor keeps
    its own questions in the same tables through :meth:`memo`.  One
    ``Regions`` lives as long as one
    :func:`~repro.static.profile.analyze_program` call, so nothing is
    remembered from one model to the next.
    """

    def __init__(self, assume: Assumptions) -> None:
        self.assume = assume
        #: table -> key -> answer: one entry per computation
        self.tables: defaultdict[str, dict] = defaultdict(dict)
        #: table -> answers served from it instead of recomputed
        self.hits: Counter[str] = Counter()

    def memo(self, table: str, key: Hashable, compute: Callable, *args):
        """``compute(*args)``, computed once per ``key`` of ``table``."""
        entries = self.tables[table]
        value = entries.get(key, _MISS)
        if value is _MISS:
            value = entries[key] = compute(*args)
        else:
            self.hits[table] += 1
        return value

    # -- symbolic comparison ----------------------------------------------

    def compare(self, a: Affine, b: Affine) -> Optional[int]:
        """:meth:`Affine.compare <repro.lang.Affine.compare>` under the
        analysis's assumptions."""
        return self.memo("compare", (a, b), a.compare, b, self.assume)

    def affine_min(self, a: Affine, b: Affine) -> tuple[Affine, bool]:
        """Symbolic min; falls back to a numeric probe (then inexact)."""
        cmp = self.compare(a, b)
        if cmp is not None:
            return (a if cmp <= 0 else b), True
        env = _probe_env((a, b))
        return (a if a.evaluate(env) <= b.evaluate(env) else b), False

    def affine_max(self, a: Affine, b: Affine) -> tuple[Affine, bool]:
        """Symbolic max; falls back to a numeric probe (then inexact)."""
        cmp = self.compare(a, b)
        if cmp is not None:
            return (a if cmp >= 0 else b), True
        env = _probe_env((a, b))
        return (a if a.evaluate(env) >= b.evaluate(env) else b), False

    # -- hulls --------------------------------------------------------------

    def ref_hull(
        self,
        ref: StaticRef,
        start: int = 0,
        window: Optional[tuple[int, int]] = None,
    ) -> Hull:
        """:func:`ref_hull`, computed once per reference, start and window.

        The rungs ask for the same hull of the same reference again and
        again.  Keyed on identity, not on the (costly to hash) reference:
        every entry holds its ref, so an id cannot be recycled while the
        memo lives.
        """
        key = (id(ref), start, window)
        return self.memo("hull", key, _held_hull, ref, start, window)[1]

    def eliminate(
        self,
        form: Affine,
        scope: tuple[LoopCtx, ...],
        start: int,
        window: Optional[tuple[int, int]],
    ) -> tuple[Affine, Affine]:
        """:func:`eliminate`, computed once per argument tuple."""
        key = (form, scope, start, window)
        return self.memo("eliminate", key, eliminate, form, scope, start, window)

    def finalize(self, hull: Hull, scope: tuple[LoopCtx, ...]) -> Hull:
        """Eliminate leftover index symbols, maximizing each dim's width.

        After a windowed elimination the bounds may still mention outer
        loop indices (and the window anchor).  For measures only widths
        matter, so each dimension is replaced by ``[1, max width]`` over
        the remaining scope — conservative for triangular shapes, exact
        for rectangular ones (where the leftover symbols cancel in the
        width).
        """
        return self.memo("finalize", (hull, scope), self._finalize, hull, scope)

    def _finalize(self, hull: Hull, scope: tuple[LoopCtx, ...]) -> Hull:
        index_names = {c.index for c in scope}
        dims: list[tuple[Affine, Affine]] = []
        exact = hull.exact
        for lo, hi in hull.dims:
            if not (lo.depends_on(index_names) or hi.depends_on(index_names)):
                dims.append((lo, hi))  # already parameter-only: keep positions
                continue
            width = hi - lo + 1
            if width.depends_on(index_names):
                _, width = self.eliminate(width, scope, 0, None)
                exact = False
            dims.append((Affine.constant(1), width))
        return Hull(hull.array, tuple(dims), exact)

    def measure(self, hull: Hull) -> Poly:
        """:meth:`Hull.measure`, computed once per hull."""
        return self.memo("measure", hull, hull.measure)

    def measure_sum(self, hulls: Mapping[str, Hull]) -> Poly:
        """Total element count across (disjoint) per-array hulls."""
        out = Poly()
        for h in hulls.values():
            out = out + self.measure(h)
        return out

    def union_hulls(self, hulls: Sequence[Hull]) -> Hull:
        """Per-dimension bounding box of same-array hulls."""
        return self.memo("union", tuple(hulls), self._union_hulls, hulls)

    def _union_hulls(self, hulls: Sequence[Hull]) -> Hull:
        assert hulls and all(h.array == hulls[0].array for h in hulls)
        dims = list(hulls[0].dims)
        exact = all(h.exact for h in hulls)
        for h in hulls[1:]:
            for k, (lo, hi) in enumerate(h.dims):
                cur_lo, cur_hi = dims[k]
                new_lo, e1 = self.affine_min(cur_lo, lo)
                new_hi, e2 = self.affine_max(cur_hi, hi)
                exact = exact and e1 and e2
                dims[k] = (new_lo, new_hi)
        return Hull(hulls[0].array, tuple(dims), exact)

    def union_disjoint(
        self, hulls: Sequence[Hull], probe: Mapping[str, int]
    ) -> list[Hull]:
        """Union hulls greedily, keeping provably disjoint groups apart.

        A single bounding box over a row ``[1,N] x {i}`` and a point
        ``{i} x {1}`` would cover the whole ``N x N`` plane; footprints
        built from mixed row/column references (fused nests are full of
        them) need the sum of the two shapes instead.  Each input hull
        merges into the first group it may overlap; the result is a list
        of pairwise provably-disjoint boxes whose measures can be summed.
        ``probe`` (see :func:`index_probe`) settles the overlaps that
        :meth:`hulls_overlap` leaves open at a generic large iteration (an
        inexact but generically correct answer: a row ``[2, N-1] x {i-2}``
        and a point ``{i-2} x {1}`` are disjoint at every interior
        iteration).
        """
        groups: list[Hull] = []
        for h in hulls:
            for k, g in enumerate(groups):
                overlap = self.hulls_overlap(g, h)
                if overlap is None:
                    overlap = not self._apart_at(g, h, probe)
                if overlap:
                    groups[k] = self.union_hulls([g, h])
                    break
            else:
                groups.append(h)
        return groups

    def hulls_overlap(self, a: Hull, b: Hull) -> Optional[bool]:
        """True/False when provable, None when indeterminate."""
        return self.memo("overlap", (a, b), self._hulls_overlap, a, b)

    def _hulls_overlap(self, a: Hull, b: Hull) -> Optional[bool]:
        determinate = True
        for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims):
            c1 = self.compare(ahi, blo)
            c2 = self.compare(bhi, alo)
            if c1 == -1 or c2 == -1:
                return False
            if c1 is None or c2 is None:
                determinate = False
        return True if determinate else None

    def _apart_at(self, a: Hull, b: Hull, probe: Mapping[str, int]) -> bool:
        """Whether a dimension whose gap :meth:`compare` cannot sign
        separates ``a`` and ``b`` at ``probe``."""
        return any(
            (self.compare(ahi, blo) is None or self.compare(bhi, alo) is None)
            and ((ahi - blo).evaluate(probe) < 0 or (bhi - alo).evaluate(probe) < 0)
            for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims)
        )

    def hull_contains(self, a: Hull, b: Hull) -> bool:
        """Provably ``a`` superset-of ``b`` (conservative: False when unsure)."""
        for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims):
            if self.compare(alo, blo) == 1:
                return False
            if self.compare(ahi, bhi) == -1:
                return False
            if self.compare(alo, blo) is None or self.compare(ahi, bhi) is None:
                return False
        return True

    def footprint_by_array(self, refs: Sequence[StaticRef]) -> dict[str, Hull]:
        """Finalized per-array union hull of every reference's full region."""
        grouped: dict[str, list[Hull]] = {}
        for ref in refs:
            h = self.finalize(self.ref_hull(ref), ref.scope)
            grouped.setdefault(ref.array, []).append(h)
        return {
            name: self.union_hulls(hs) for name, hs in sorted(grouped.items())
        }
