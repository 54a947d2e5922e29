"""The one numbering of a program's iteration space.

:func:`lower` walks the AST once.  It gives every assignment its
``stmt_id``, every array reference its ``ref_id`` (an assignment's reads
in expression order, then its target) and every loop its ``loop_id``,
each in pre-order.  No analysis walks the AST to number it again: the
tracers fold this lowering at a binding
(:class:`repro.interp.tracegen._Compiler`), and the static model
flattens it symbolically (:func:`repro.static.model.build_model`).  A
static reference id is therefore the trace's ``ref_id`` by construction.

:func:`linearize` is a reference's column-major element record
``Σ (sub − 1) · stride`` at a binding, what the tracers evaluate per
iteration and the parallelism analyzer solves over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .affine import ZERO
from .errors import AnalysisError
from .expr import ArrayRef, array_reads
from .program import Program
from .stmt import Assign, CallStmt, Guard, Loop, Stmt


@dataclass(frozen=True)
class LoweredRef:
    ref_id: int
    stmt_id: int
    ref: ArrayRef
    is_write: bool


@dataclass(frozen=True)
class LoweredAssign:
    stmt_id: int
    refs: tuple[LoweredRef, ...]  # reads in expression order, then the write


@dataclass(frozen=True)
class LoweredGuard:
    guard: Guard
    body: tuple["LoweredNode", ...]
    else_body: tuple["LoweredNode", ...]


@dataclass(frozen=True)
class LoweredLoop:
    loop_id: int
    loop: Loop
    body: tuple["LoweredNode", ...]


LoweredNode = Union[LoweredAssign, LoweredGuard, LoweredLoop]


@dataclass(frozen=True)
class Lowering:
    """A program's top-level statements, lowered, and every reference
    in ``ref_id`` order."""

    nests: tuple[LoweredNode, ...]
    refs: tuple[LoweredRef, ...]


def lower(program: Program) -> Lowering:
    """Number ``program``; a call statement is an :class:`AnalysisError`
    (inline first)."""
    refs: list[LoweredRef] = []
    stmts = loops = 0

    def ref(r: ArrayRef, stmt_id: int, is_write: bool) -> LoweredRef:
        refs.append(LoweredRef(len(refs), stmt_id, r, is_write))
        return refs[-1]

    def body(block: Sequence[Stmt]) -> tuple[LoweredNode, ...]:
        return tuple(node(s) for s in block)

    def node(stmt: Stmt) -> LoweredNode:
        nonlocal stmts, loops
        if isinstance(stmt, Assign):
            stmt_id, stmts = stmts, stmts + 1
            reads = [ref(r, stmt_id, False) for r in array_reads(stmt.expr)]
            if isinstance(stmt.target, ArrayRef):
                reads.append(ref(stmt.target, stmt_id, True))
            return LoweredAssign(stmt_id, tuple(reads))
        if isinstance(stmt, Guard):
            return LoweredGuard(stmt, body(stmt.body), body(stmt.else_body))
        if isinstance(stmt, Loop):
            loop_id, loops = loops, loops + 1
            return LoweredLoop(loop_id, stmt, body(stmt.body))
        if isinstance(stmt, CallStmt):
            raise AnalysisError(
                f"analysis requires inlined programs; found call to {stmt.proc!r}"
            )
        raise AnalysisError(f"cannot lower statement {type(stmt).__name__}")

    nests = body(program.body)
    return Lowering(nests, tuple(refs))


def linearize(
    ref: ArrayRef, strides: Sequence[int], params: Mapping[str, int]
) -> tuple[int, tuple[tuple[str, int], ...]]:
    """``ref``'s element record ``Σ (sub − 1) · stride`` over its array's
    column-major ``strides``, ``params`` folded in (:meth:`Affine.fold`:
    a fractional residue is a :class:`~repro.lang.NotAffineError`)."""
    form = ZERO
    for sub, stride in zip(ref.indices, strides):
        form = form + (sub.affine() - 1) * stride
    return form.fold(params)
