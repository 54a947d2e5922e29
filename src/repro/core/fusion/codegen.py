"""Code generation for fusion units.

Lowers a :class:`FusionUnit` back to ordinary IR.  The primary emitter is
*segmented*: the fused iteration space is cut at every member bound and
embedding point, so each segment has a statically known set of active
slots.  Width-1 segments are emitted as straight-line peeled code (the
paper's ``A[1] = A[N]; B[3] = g(A[1])`` after the fused loop in Fig. 4a);
wider segments become plain loops whose bodies are the concatenated,
index-shifted member bodies.

When the symbolic ordering of the breakpoints cannot be decided, the
emitter falls back to a single hull loop with per-member :class:`Guard`
statements — always correct, merely less pretty and opaque to inner-level
fusion.

This replaces the paper's use of the Omega library with the "direct code
generation scheme whose cost is linear in the number of loop levels" that
the paper says was being implemented.
"""

from __future__ import annotations

from typing import Sequence

from ...lang import (
    Affine,
    DEFAULT_PARAM_MIN,
    Guard,
    Interval,
    Loop,
    Stmt,
    TransformError,
    affine_expr,
)
from ...transform.subst import FreshNames, bound_names, rename_bound, subst_stmt
from .unit import FusionUnit, Member


class _Incomparable(Exception):
    pass


def _sorted_breakpoints(points: list[Affine], assume) -> list[Affine]:
    """Symbolic insertion sort with deduplication; raises when unordered."""
    out: list[Affine] = []
    for p in points:
        placed = False
        for k, q in enumerate(out):
            cmp = p.compare(q, assume)
            if cmp is None:
                raise _Incomparable()
            if cmp == 0:
                placed = True
                break
            if cmp < 0:
                out.insert(k, p)
                placed = True
                break
        if not placed:
            out.append(p)
    return out


def _frame_name(unit: FusionUnit, fresh: FreshNames) -> str:
    members = unit.members
    candidate = members[0].loop.index
    avoid: set[str] = set(unit.params)
    for m in members:
        avoid |= bound_names(m.loop.body)
    for e in unit.embeds:
        avoid |= bound_names(e.stmts)
    if candidate in avoid:
        candidate = fresh.fresh(candidate)
    fresh.reserve([candidate])
    return candidate


def _member_body(
    member: Member,
    frame: str,
    at: Affine | None,
    fresh: FreshNames,
    params: frozenset[str],
) -> list[Stmt]:
    """Member body translated into the fused frame (or to a point)."""
    body = list(member.loop.body)
    # rename inner binders colliding with the frame variable
    body = [rename_bound(s, {frame} - {member.loop.index}, fresh) for s in body]
    if at is not None:
        target = affine_expr(at - member.shift, params)
    else:
        target = affine_expr(Affine.var(frame) - member.shift, params)
    if member.loop.index == frame and member.shift == 0 and at is None:
        return body
    bindings = {member.loop.index: target}
    return [t for s in body for t in subst_stmt(s, bindings, params)]


def unit_to_stmts(
    unit: FusionUnit,
    fresh: FreshNames,
    assume=DEFAULT_PARAM_MIN,
    label: str | None = None,
) -> list[Stmt]:
    """Lower a unit to a list of ordinary statements."""
    if unit.is_loose:
        return list(unit.loose)
    if unit.is_simple_loop():
        return [unit.slots[0].loop]
    if unit.loose:
        raise TransformError("unit has both members and loose statements")
    try:
        return _segmented(unit, fresh, assume, label)
    except _Incomparable:
        return _guarded(unit, fresh, assume, label)


def _segmented(
    unit: FusionUnit, fresh: FreshNames, assume, label: str | None
) -> list[Stmt]:
    params = frozenset(unit.params)
    frame = _frame_name(unit, fresh)
    points: list[Affine] = []
    spans: list[tuple[Affine, Affine]] = []  # [lo, hi] per slot
    for slot in unit.slots:
        if isinstance(slot, Member):
            lo, hi = slot.fused_lo, slot.fused_hi
        else:
            lo = hi = slot.at
        spans.append((lo, hi))
        points.append(lo)
        points.append(hi + 1)
    order = _sorted_breakpoints(points, assume)

    def pos(p: Affine) -> int:
        for k, q in enumerate(order):
            if p.compare(q, assume) == 0:
                return k
        raise _Incomparable()  # pragma: no cover - all points were inserted

    slot_pos = [(pos(lo), pos(hi + 1)) for lo, hi in spans]
    out: list[Stmt] = []
    for s in range(len(order) - 1):
        a, b = order[s], order[s + 1]
        width = b - a
        active = [
            (slot, lo_p)
            for (slot, (lo_p, hi_p)) in zip(unit.slots, slot_pos)
            if lo_p <= s < hi_p
        ]
        if not active:
            continue
        if width.is_constant() and width.int_value() == 1:
            for slot, _ in active:
                if isinstance(slot, Member):
                    emitted = _member_body(slot, frame, a, fresh, params)
                    out.extend(_relabel(emitted, label))
                else:
                    out.extend(_relabel(list(slot.stmts), label))
        else:
            body: list[Stmt] = []
            for slot, _ in active:
                if isinstance(slot, Member):
                    body.extend(_member_body(slot, frame, None, fresh, params))
                else:  # pragma: no cover - embeds always get width-1 segments
                    raise TransformError("embedded statement in a wide segment")
            out.append(
                Loop(
                    frame,
                    affine_expr(a, params),
                    affine_expr(b - 1, params),
                    tuple(body),
                    label=label,
                )
            )
    return out


def _guarded(
    unit: FusionUnit, fresh: FreshNames, assume, label: str | None
) -> list[Stmt]:
    from ...analysis import symbolic_max, symbolic_min

    params = frozenset(unit.params)
    frame = _frame_name(unit, fresh)
    los: list[Affine] = []
    his: list[Affine] = []
    for slot in unit.slots:
        if isinstance(slot, Member):
            los.append(slot.fused_lo)
            his.append(slot.fused_hi)
        else:
            los.append(slot.at)
            his.append(slot.at)
    lo = symbolic_min(los, assume)
    hi = symbolic_max(his, assume)
    if lo is None or hi is None:
        raise TransformError(
            "cannot bound the fused iteration space symbolically"
        )
    body: list[Stmt] = []
    for slot in unit.slots:
        if isinstance(slot, Member):
            inner = _member_body(slot, frame, None, fresh, params)
            body.append(
                Guard(frame, (Interval(slot.fused_lo, slot.fused_hi),), tuple(inner))
            )
        else:
            body.append(Guard(frame, (Interval.point(slot.at),), slot.stmts))
    return [
        Loop(frame, affine_expr(lo, params), affine_expr(hi, params), tuple(body), label=label)
    ]


def _relabel(stmts: list[Stmt], label: str | None) -> list[Stmt]:
    """Tag emitted boundary-slice loops with the owning unit's label, so
    later passes (data regrouping's phase partitioning) can tell that a
    peeled slice and its core belong to one computation phase."""
    if label is None:
        return stmts
    from dataclasses import replace as _dc_replace

    return [
        _dc_replace(s, label=label) if isinstance(s, Loop) and s.label is None else s
        for s in stmts
    ]


def peel_iterations(
    loop: Loop,
    values: Sequence[Affine],
    fresh: FreshNames,
    params: frozenset[str] = frozenset(),
) -> list[Stmt]:
    """Materialize specific iterations of ``loop`` as straight-line code."""
    out: list[Stmt] = []
    for value in values:
        target = affine_expr(value, params)
        for stmt in loop.body:
            out.extend(subst_stmt(stmt, {loop.index: target}, params))
    return out
