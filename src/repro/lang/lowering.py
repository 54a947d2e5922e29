"""The one numbering of a program's iteration space, and its fold.

:func:`lower` walks the AST once.  It gives every assignment its
``stmt_id``, every array reference its ``ref_id`` (an assignment's reads
in expression order, then its target) and every loop its ``loop_id``,
each in pre-order.  No analysis walks the AST to number it again: the
tracers fold this lowering at a binding (:class:`Fold`), and the static
model flattens it symbolically (:func:`repro.static.model.build_model`).
A static reference id is therefore the trace's ``ref_id`` by
construction.

:func:`linearize` is a reference's column-major element record
``Σ (sub − 1) · stride`` at a binding, what the tracers evaluate per
instance and the parallelism analyzer solves over.

:class:`Fold` folds the bound parameters into every such record, loop
bound and guard bound once, each an integer *address record* ``(const,
((loop var, coeff), …))`` that :func:`at` evaluates over the live loop
variables.  The tracers' supported input is therefore *integer-affine
after binding*: a fractional residue (``A[i / 2]``, ``for i = 1, N / 2``
at an odd ``N``) is an :class:`AnalysisError` naming the reference or
loop and the binding — the interpreter's "non-integral subscript/bound"
rule — instead of a truncated address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .affine import ZERO, Affine
from .errors import AnalysisError, NotAffineError
from .expr import ArrayRef, array_reads
from .program import Program, check_params
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
    stmt: Assign
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
            return LoweredAssign(stmt_id, stmt, tuple(reads))
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


#: integer address record ``const + Σ coeff · loop var``, parameters folded in
Record = tuple[int, tuple[tuple[str, int], ...]]


def at(record: Record, env: Mapping[str, int]) -> int:
    """Value of an address record at the loop-variable binding ``env``."""
    value, terms = record
    for name, coeff in terms:
        value += coeff * env[name]
    return value


@dataclass(frozen=True)
class FoldedRef:
    ref_id: int
    array_id: int
    is_write: bool
    linform: Record  # canonical (column-major) element index


@dataclass(frozen=True)
class FoldedAssign:
    stmt_id: int
    refs: tuple[FoldedRef, ...]  # reads in expression order, then the write


@dataclass(frozen=True)
class FoldedGuard:
    index: str
    intervals: tuple[tuple[Record, Record], ...]
    body: tuple["FoldedNode", ...]
    else_body: tuple["FoldedNode", ...]


@dataclass(frozen=True)
class FoldedLoop:
    index: str
    lower: Record
    upper: Record
    body: tuple["FoldedNode", ...]


FoldedNode = Union[FoldedAssign, FoldedGuard, FoldedLoop]


class Fold:
    """``program``'s lowering folded at the binding ``params``.

    ``nests`` are the folded top-level statements, ``refs`` the
    lowering's references in ``ref_id`` order, ``sizes`` every array's
    element count and ``assigns`` the folded assignment of every
    :class:`Assign` object, by identity.
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.params = check_params(program, params)
        self.array_ids = {a.name: k for k, a in enumerate(program.arrays)}
        self.strides = {a.name: a.strides(self.params) for a in program.arrays}
        self.sizes = [math.prod(a.shape(self.params)) for a in program.arrays]
        lowering = lower(program)
        self.refs = lowering.refs
        self.assigns: dict[int, FoldedAssign] = {}
        self._linforms: dict[ArrayRef, Record] = {}
        self.nests = self.fold_body(lowering.nests)

    def fold(self, what: object, record) -> Record:
        """``record()``, an address record; the error names the reference,
        loop or guard ``what`` it belongs to, and the binding."""
        try:
            return record()
        except NotAffineError as exc:
            raise AnalysisError(
                f"cannot trace `{what}` at {dict(self.params)}: {exc}"
            ) from None

    def linform(self, ref: ArrayRef) -> Record:
        # memoized: textually repeated references are common
        record = self._linforms.get(ref)
        if record is None:
            strides = self.strides[ref.array]
            record = self._linforms[ref] = self.fold(
                ref, lambda: linearize(ref, strides, self.params)
            )
        return record

    def bound(self, what: object, form: Affine) -> Record:
        return self.fold(what, lambda: form.fold(self.params))

    def fold_body(self, nodes: Sequence[LoweredNode]) -> tuple[FoldedNode, ...]:
        return tuple(self.fold_node(n) for n in nodes)

    def fold_node(self, node: LoweredNode) -> FoldedNode:
        if isinstance(node, LoweredAssign):
            folded = self.assigns[id(node.stmt)] = FoldedAssign(
                node.stmt_id,
                tuple(
                    FoldedRef(r.ref_id, self.array_ids[r.ref.array], r.is_write,
                              self.linform(r.ref))
                    for r in node.refs
                ),
            )
            return folded
        if isinstance(node, LoweredGuard):
            guard = node.guard
            return FoldedGuard(
                guard.index,
                tuple(
                    (self.bound(guard, iv.lower), self.bound(guard, iv.upper))
                    for iv in guard.intervals
                ),
                self.fold_body(node.body),
                self.fold_body(node.else_body),
            )
        loop = node.loop
        return FoldedLoop(
            loop.index,
            self.bound(loop, loop.lower.affine()),
            self.bound(loop, loop.upper.affine()),
            self.fold_body(node.body),
        )
