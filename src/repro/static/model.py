"""Static reference model: the IR flattened to symbolic references.

The model flattens the program's one lowering
(:func:`repro.lang.lowering.lower`), the numbering the tracers fold
too, so its reference ids *are* the ``ref_ids`` of a dynamically
generated :class:`~repro.interp.trace.AccessTrace` for the same program.
That correspondence is what lets the cross-validation suite compare
static and dynamic reuse classes reference by reference.

Unlike the tracers, nothing here is evaluated: loop bounds stay
affine, subscripts stay affine, and a guard narrows the enclosing index
range by the one rule of :func:`repro.lang.scope.narrow`, the rule every
symbolic analysis applies.  The flatten walks the lowering rather than
:class:`repro.lang.Scope` because the lowering's ids are the tracers'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..lang import Affine, ArrayDecl, Assumptions, Guard, Program
from ..lang.lowering import LoweredAssign, LoweredLoop, lower
from ..lang.scope import narrow, widths
from .poly import ONE, Poly


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop level as seen by a reference.

    ``lo``/``hi`` are the (possibly guard-narrowed) inclusive bounds;
    ``trip`` is the iteration count as a polynomial (for a multi-interval
    guard the hull ``[lo, hi]`` is wider than the iteration set, but
    ``trip`` sums the narrowed interval widths; an else branch counts the
    loop's iterations outside them); ``exact`` is False when the
    narrowing lost information.

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


def _guard_contexts(
    scope: tuple[LoopCtx, ...], level: int, guard: Guard, assume: Assumptions
) -> tuple[LoopCtx, LoopCtx]:
    """The guarded index's context (``scope[level]``) inside ``guard``'s
    body and its else branch: the body's range by the guard rule over
    ``scope``, its trip the narrowed widths of the intervals; the else
    branch keeps the loop's range and counts the iterations the body
    does not take."""
    outer = scope[level]
    lo, hi, exact = narrow(outer.lo, outer.hi, guard, scope, assume)
    counts = widths(outer.lo, outer.hi, guard, scope, assume)
    trip = sum((Poly.from_affine(w) for w in counts), Poly())
    inside = LoopCtx(outer.index, lo, hi, trip, exact and outer.exact, outer.loop_id)
    orelse = LoopCtx(
        outer.index, outer.lo, outer.hi, outer.trip - trip, False, outer.loop_id
    )
    return inside, orelse


def build_model(program: Program) -> StaticModel:
    """The static reference model of ``program``: its lowering
    (:func:`repro.lang.lowering.lower`) flattened, each reference with
    the loop contexts around it, guards narrowing them by the one rule,
    its access row normalised once (``uniform`` / ``rows`` / ``offset``)
    and grouped by uniformly generated set.  The lowering's ids are the
    tracers', so reference ids match the ``ref_ids`` of
    :func:`repro.codegen.trace_program` and :func:`repro.interp.trace_program`.
    """
    lowering = lower(program)
    assume = Assumptions()
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
                if level is None:
                    flatten(node.body, scope, nest, start)
                    flatten(node.else_body, scope, nest, start)
                    continue
                contexts = _guard_contexts(scope, level, node.guard, assume)
                for body, ctx in zip((node.body, node.else_body), contexts):
                    flatten(body, scope[:level] + (ctx,) + scope[level + 1:], nest, start)

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
