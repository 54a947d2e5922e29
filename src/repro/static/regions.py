"""Symbolic array-region hulls and their measures.

The reuse-distance of a long-range reuse is the volume of data touched
between the two accesses.  For affine loop nests that volume is a union
of per-array rectangular *hulls*: per dimension an affine ``[lo, hi]``
obtained by interval arithmetic over the enclosing loop bounds — the
same elimination the IR linter's :func:`~repro.verify.ir_verifier.
affine_range` performs, generalized with an *iteration window* so "the
data touched by ``w`` consecutive iterations of loop level ``l``" is
expressible.  Hulls over-approximate (a triangular footprint gets its
bounding box), which keeps every derived distance a conservative upper
estimate — the direction the property suite certifies.

Guarded and triangular loops resolve through the same conservative
interval machinery as :mod:`repro.analysis.constraint`'s alignment math:
indeterminate symbolic comparisons fall back to a large-parameter probe
and mark the hull inexact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..lang import Affine, Assumptions, DEFAULT_PARAM_MIN
from .model import LoopCtx, StaticRef
from .poly import ONE, Poly

#: probe point for indeterminate comparisons: large enough that the
#: dominant parameter term decides
_PROBE = 10**4

#: calls so far in this process of the two functions every rung of the
#: reuse ladder bottoms out in.  A plain tally, not ``metrics.inc``: they
#: run thousands of times per model, and ``reuse.attribute_model``
#: publishes the difference over one model as a single increment
CALLS = {"eliminate": 0, "union_hulls": 0}


def _probe_env(forms: Iterable[Affine]) -> dict[str, int]:
    names: set[str] = set()
    for f in forms:
        names.update(f.variables())
    return {n: _PROBE for n in names}


def affine_min(a: Affine, b: Affine, assume: Assumptions) -> tuple[Affine, bool]:
    """Symbolic min; falls back to a numeric probe (then inexact)."""
    cmp = a.compare(b, assume)
    if cmp is not None:
        return (a if cmp <= 0 else b), True
    env = _probe_env((a, b))
    return (a if a.evaluate(env) <= b.evaluate(env) else b), False


def affine_max(a: Affine, b: Affine, assume: Assumptions) -> tuple[Affine, bool]:
    """Symbolic max; falls back to a numeric probe (then inexact)."""
    cmp = a.compare(b, assume)
    if cmp is not None:
        return (a if cmp >= 0 else b), True
    env = _probe_env((a, b))
    return (a if a.evaluate(env) >= b.evaluate(env) else b), False


@dataclass(frozen=True)
class Hull:
    """A rectangular symbolic region of one array.

    ``dims`` holds inclusive affine ``[lo, hi]`` per dimension; the forms
    mention program parameters only (callers eliminate loop indices via
    :func:`ref_hull` before unioning across references).
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


def eliminate(
    form: Affine,
    scope: Sequence[LoopCtx],
    start: int = 0,
    window: Optional[tuple[int, int]] = None,
) -> tuple[Affine, Affine]:
    """Symbolic [min, max] of ``form`` eliminating scope levels >= start.

    ``window=(level, w)`` treats that level's index ``i`` as ranging over
    the ``w``-iteration window ``[i, i + w - 1]`` instead of its full
    range — the index symbol itself survives as the window anchor (it
    cancels in widths and aligns positions across references).  Inner
    levels substitute innermost-first so triangular bounds resolve, as
    in the linter's ``affine_range``.
    """
    CALLS["eliminate"] += 1
    lo, hi = form, form
    for level in range(len(scope) - 1, start - 1, -1):
        ctx = scope[level]
        if window is not None and level == window[0]:
            b_lo: Union[Affine, int] = Affine.var(ctx.index)
            b_hi: Union[Affine, int] = Affine.var(ctx.index) + (window[1] - 1)
        else:
            b_lo, b_hi = ctx.lo, ctx.hi
        c = lo.coeff(ctx.index)
        if c != 0:
            lo = lo.substitute({ctx.index: b_lo if c > 0 else b_hi})
        c = hi.coeff(ctx.index)
        if c != 0:
            hi = hi.substitute({ctx.index: b_hi if c > 0 else b_lo})
    return lo, hi


def ref_hull(
    ref: StaticRef,
    start: int = 0,
    window: Optional[tuple[int, int]] = None,
) -> Hull:
    """The hull of ``ref``'s accesses over scope levels >= ``start``.

    Levels outside ``start`` (and the window anchor) survive as symbols;
    use :func:`finalize` to reduce the hull to parameter-only widths.
    """
    dims = tuple(eliminate(s, ref.scope, start, window) for s in ref.subs)
    exact = all(c.exact for c in ref.scope[start:])
    return Hull(ref.array, dims, exact)


def finalize(hull: Hull, scope: Sequence[LoopCtx], assume: Assumptions) -> Hull:
    """Eliminate leftover index symbols, maximizing each dim's width.

    After a windowed elimination the bounds may still mention outer loop
    indices (and the window anchor).  For measures only widths matter, so
    each dimension is replaced by ``[1, max width]`` over the remaining
    scope — conservative for triangular shapes, exact for rectangular
    ones (where the leftover symbols cancel in the width).
    """
    index_names = {c.index for c in scope}
    dims: list[tuple[Affine, Affine]] = []
    exact = hull.exact
    for lo, hi in hull.dims:
        if not (lo.depends_on(index_names) or hi.depends_on(index_names)):
            dims.append((lo, hi))  # already parameter-only: keep positions
            continue
        width = hi - lo + 1
        if width.depends_on(index_names):
            w_lo, w_hi = eliminate(width, scope, 0)
            width = w_hi
            exact = False
        dims.append((Affine.constant(1), width))
    return Hull(hull.array, tuple(dims), exact)


def union_hulls(hulls: Sequence[Hull], assume: Assumptions) -> Hull:
    """Per-dimension bounding box of same-array hulls."""
    assert hulls and all(h.array == hulls[0].array for h in hulls)
    CALLS["union_hulls"] += 1
    dims = list(hulls[0].dims)
    exact = all(h.exact for h in hulls)
    for h in hulls[1:]:
        for k, (lo, hi) in enumerate(h.dims):
            cur_lo, cur_hi = dims[k]
            new_lo, e1 = affine_min(cur_lo, lo, assume)
            new_hi, e2 = affine_max(cur_hi, hi, assume)
            exact = exact and e1 and e2
            dims[k] = (new_lo, new_hi)
    return Hull(hulls[0].array, tuple(dims), exact)


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


def union_disjoint(
    hulls: Sequence[Hull],
    assume: Assumptions,
    probe: Optional[Mapping[str, int]] = None,
) -> list[Hull]:
    """Union hulls greedily, keeping provably disjoint groups apart.

    A single bounding box over a row ``[1,N] x {i}`` and a point
    ``{i} x {1}`` would cover the whole ``N x N`` plane; footprints built
    from mixed row/column references (fused nests are full of them) need
    the sum of the two shapes instead.  Each input hull merges into the
    first group it may overlap; the result is a list of pairwise
    provably-disjoint boxes whose measures can be summed.  ``probe``
    (see :func:`index_probe`) settles index-dependent comparisons at a
    generic large iteration.
    """
    groups: list[Hull] = []
    for h in hulls:
        for k, g in enumerate(groups):
            if hulls_overlap(g, h, assume, probe) is not False:
                groups[k] = union_hulls([g, h], assume)
                break
        else:
            groups.append(h)
    return groups


def hulls_overlap(
    a: Hull,
    b: Hull,
    assume: Assumptions,
    probe: Optional[Mapping[str, int]] = None,
) -> Optional[bool]:
    """True/False when provable, None when indeterminate.

    With a ``probe`` environment, indeterminate per-dimension gaps are
    decided at the probe point instead (an inexact but generically
    correct answer: a row ``[2, N-1] x {i-2}`` and a point
    ``{i-2} x {1}`` are disjoint at every interior iteration).
    """
    determinate = True
    for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims):
        c1 = ahi.compare(blo, assume)
        c2 = bhi.compare(alo, assume)
        if c1 == -1 or c2 == -1:
            return False
        if c1 is None or c2 is None:
            if probe is not None:
                if (
                    (ahi - blo).evaluate(probe) < 0
                    or (bhi - alo).evaluate(probe) < 0
                ):
                    return False
            determinate = False
    return True if determinate else None


def hull_contains(a: Hull, b: Hull, assume: Assumptions) -> bool:
    """Provably ``a`` superset-of ``b`` (conservative: False when unsure)."""
    for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims):
        if alo.compare(blo, assume) == 1:
            return False
        if ahi.compare(bhi, assume) == -1:
            return False
        if alo.compare(blo, assume) is None or ahi.compare(bhi, assume) is None:
            return False
    return True


def intersect_measure(a: Hull, b: Hull, assume: Assumptions) -> Poly:
    """Element count of the box intersection of two same-array hulls.

    Callers check :func:`hulls_overlap` first; the per-dim width
    ``min(hi) - max(lo) + 1`` is taken at face value symbolically and
    clamped by the evaluator's count clamping at concrete sizes.
    """
    out = ONE
    for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims):
        lo, _ = affine_max(alo, blo, assume)
        hi, _ = affine_min(ahi, bhi, assume)
        out = out * Poly.from_affine(hi - lo + 1)
    return out


def footprint_by_array(
    refs: Sequence[StaticRef], assume: Assumptions
) -> dict[str, Hull]:
    """Finalized per-array union hull of every reference's full region."""
    grouped: dict[str, list[Hull]] = {}
    for ref in refs:
        h = finalize(ref_hull(ref, 0), ref.scope, assume)
        grouped.setdefault(ref.array, []).append(h)
    return {
        name: union_hulls(hs, assume) for name, hs in sorted(grouped.items())
    }


def measure_sum(hulls: Mapping[str, Hull]) -> Poly:
    """Total element count across (disjoint) per-array hulls."""
    out = Poly()
    for h in hulls.values():
        out = out + h.measure()
    return out


def default_assumptions(
    assume: Union[int, Assumptions, None] = None
) -> Assumptions:
    if assume is None:
        return Assumptions(default=DEFAULT_PARAM_MIN)
    if isinstance(assume, int):
        return Assumptions(default=assume)
    return assume
