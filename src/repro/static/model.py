"""Static reference model: the IR flattened to symbolic references.

The model flattens the program's one lowering
(:func:`repro.lang.lowering.lower`), the numbering the trace generators
fold too, so its reference ids *are* the ``ref_ids`` of a dynamically
generated :class:`~repro.interp.trace.AccessTrace` for the same program.
That correspondence is what lets the cross-validation suite compare
static and dynamic reuse classes reference by reference.

Unlike the trace generator, nothing here is evaluated: loop bounds stay
affine, subscripts stay affine, guard intervals either *narrow* the
enclosing index range (single interval — the common fusion-boundary
shape) or fall back to a conservative hull over the interval union, the
same convention as :mod:`repro.analysis.access` and the IR linter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..lang import Affine, ArrayDecl, Guard, Program
from ..lang.lowering import LoweredAssign, LoweredLoop, lower
from .poly import ONE, Poly


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop level as seen by a reference.

    ``lo``/``hi`` are the (possibly guard-narrowed) inclusive bounds;
    ``trip`` is the exact iteration count as a polynomial (for a
    multi-interval guard the hull ``[lo, hi]`` is wider than the true
    iteration set, but ``trip`` still sums the interval widths exactly);
    ``exact`` is False when the narrowing lost information.

    ``loop_id`` identifies the originating :class:`~repro.lang.Loop`
    statement: two references share an iteration space at some level only
    if their contexts carry the same id there.  After fusion several
    sibling loops reuse the same *index name*, so name equality must not
    be mistaken for shared ancestry — the attributor's shared-prefix
    computations all compare ids, never names.
    """

    index: str
    lo: Affine
    hi: Affine
    trip: Poly
    exact: bool = True
    loop_id: int = -1


def iterations(scope: tuple[LoopCtx, ...]) -> Poly:
    """Iterations of a loop scope: the product of its trip counts."""
    count = ONE
    for ctx in scope:
        count = count * ctx.trip
    return count


@dataclass(frozen=True)
class StaticRef:
    """One static array reference with its full symbolic context."""

    ref_id: int
    nest: int  # position of the enclosing top-level statement
    pos: int  # pre-order reference ordinal within the nest
    stmt_id: int
    array: str
    is_write: bool
    subs: tuple[Affine, ...]
    scope: tuple[LoopCtx, ...]
    text: str
    #: the *uniformly generated* part, normalised once: the array, the
    #: scope's indices and each subscript's linear part (over indices and
    #: parameters).  References with equal keys differ by ``offset`` only.
    uniform: tuple = field(compare=False, repr=False)
    #: per subscript, its coefficients on the scope's indices, outer-first
    rows: tuple[tuple[int | Fraction, ...], ...] = field(
        compare=False, repr=False
    )
    #: per subscript, its constant term
    offset: tuple[int | Fraction, ...] = field(compare=False, repr=False)

    def exec_count(self) -> Poly:
        """Accesses this reference performs per body repetition."""
        return iterations(self.scope)

    def scope_indices(self) -> tuple[str, ...]:
        return tuple(c.index for c in self.scope)


@dataclass(frozen=True)
class StaticModel:
    """Every reference of a program, grouped by top-level nest."""

    program: Program
    params: tuple[str, ...]
    arrays: dict[str, ArrayDecl]
    refs: tuple[StaticRef, ...]
    nests: tuple[tuple[StaticRef, ...], ...]
    #: ``(nest, uniform)`` -> the nest's references of that uniformly
    #: generated set, in textual order
    uniform_sets: dict[tuple, tuple[StaticRef, ...]]

    def total_accesses(self) -> Poly:
        """Accesses per body repetition (multiply by steps for a run)."""
        total = Poly()
        for ref in self.refs:
            total = total + ref.exec_count()
        return total


def _narrow(outer: LoopCtx, guard: Guard, else_branch: bool) -> LoopCtx:
    """The guarded index's range inside the guard body (or else body)."""
    member_trip = Poly()
    lo: Optional[Affine] = None
    hi: Optional[Affine] = None
    for iv in guard.intervals:
        member_trip = member_trip + Poly.from_affine(iv.upper - iv.lower + 1)
        lo = iv.lower if lo is None else _pick(lo, iv.lower, smaller=True)
        hi = iv.upper if hi is None else _pick(hi, iv.upper, smaller=False)
    if else_branch:
        trip = outer.trip - member_trip
        return LoopCtx(
            outer.index, outer.lo, outer.hi, trip,
            exact=False, loop_id=outer.loop_id,
        )
    exact = len(guard.intervals) == 1 and outer.exact
    assert lo is not None and hi is not None
    return LoopCtx(
        outer.index, lo, hi, member_trip, exact=exact, loop_id=outer.loop_id
    )


def _pick(a: Affine, b: Affine, smaller: bool) -> Affine:
    """min/max of two affine forms; indeterminate keeps the first."""
    cmp = a.compare(b)
    if cmp is None:
        return a
    if smaller:
        return a if cmp <= 0 else b
    return a if cmp >= 0 else b


def build_model(program: Program) -> StaticModel:
    """The static reference model of ``program``: its lowering
    (:func:`repro.lang.lowering.lower`) flattened, each reference with
    the loop contexts around it, guards narrowing them (:func:`_narrow`),
    its access row normalised once (``uniform`` / ``rows`` / ``offset``)
    and grouped by uniformly generated set.  The lowering's ids are the
    tracers', so reference ids match
    :func:`repro.interp.tracegen.trace_program`'s ``ref_ids``.
    """
    lowering = lower(program)
    refs: list[StaticRef] = []

    def flatten(nodes, scope: tuple[LoopCtx, ...], nest: int, start: int) -> None:
        for node in nodes:
            if isinstance(node, LoweredAssign):
                indices = tuple(c.index for c in scope)
                for r in node.refs:
                    subs = r.ref.index_affines()
                    refs.append(StaticRef(
                        r.ref_id, nest, r.ref_id - start, r.stmt_id, r.ref.array,
                        r.is_write, subs, scope, str(r.ref),
                        (r.ref.array, indices, tuple(s.coeffs for s in subs)),
                        tuple(tuple(s.coeff(ix) for ix in indices) for s in subs),
                        tuple(s.const for s in subs),
                    ))
            elif isinstance(node, LoweredLoop):
                lo, hi = node.loop.bounds_affine()
                ctx = LoopCtx(node.loop.index, lo, hi, Poly.from_affine(hi - lo + 1),
                              loop_id=node.loop_id)
                flatten(node.body, scope + (ctx,), nest, start)
            else:
                index = node.guard.index
                level = next((k for k, c in enumerate(scope) if c.index == index), None)
                for body, else_branch in ((node.body, False), (node.else_body, True)):
                    inner = scope
                    if level is not None:
                        ctx = _narrow(scope[level], node.guard, else_branch)
                        inner = scope[:level] + (ctx,) + scope[level + 1:]
                    flatten(body, inner, nest, start)

    nests = []
    for k, node in enumerate(lowering.nests):
        start = len(refs)
        flatten((node,), (), k, start)
        nests.append(tuple(refs[start:]))
    uniform_sets: dict[tuple, list[StaticRef]] = {}
    for ref in refs:
        uniform_sets.setdefault((ref.nest, ref.uniform), []).append(ref)
    return StaticModel(
        program=program,
        params=tuple(program.params),
        arrays={a.name: a for a in program.arrays},
        refs=tuple(refs),
        nests=tuple(nests),
        uniform_sets={k: tuple(v) for k, v in uniform_sets.items()},
    )
