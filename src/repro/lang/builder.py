"""Convenience builders for constructing programs in Python.

The DSL parser is the primary front end; the builder exists so tests,
benchmark-program generators, and examples can assemble ASTs
programmatically without string templates::

    b = ProgramBuilder("adi", params=["N"])
    A = b.array("A", "N", "N")
    i, j = idx("i"), idx("j")
    b.add(loop("i", 2, param("N"),
               loop("j", 1, param("N"),
                    assign(A[j, i], call("f", A[j, i - 1], A[j, i])))))
    prog = b.build()
"""

from __future__ import annotations

from typing import Sequence, Union

from .expr import (
    ArrayRef,
    Call,
    Const,
    Expr,
    ExprLike,
    IndexVar,
    Param,
    ScalarRef,
    UnaryOp,
    wrap,
)
from .program import ArrayDecl, Procedure, Program
from .stmt import Assign, Guard, Interval, Loop, Stmt
from .affine import Affine
from .errors import ValidationError


class ArrayHandle:
    """A declared array that can be subscripted with ``handle[e1, e2]``."""

    def __init__(self, name: str, ndim: int) -> None:
        self.name = name
        self.ndim = ndim

    def __getitem__(self, indices: Union[ExprLike, tuple[ExprLike, ...]]) -> ArrayRef:
        if not isinstance(indices, tuple) or isinstance(indices, Affine):
            indices = (indices,)
        if len(indices) != self.ndim:
            raise ValidationError(
                f"array {self.name!r} has {self.ndim} dims, got {len(indices)} subscripts"
            )
        return ArrayRef(self.name, tuple(wrap(e) for e in indices))

    def ref(self, *indices: ExprLike) -> ArrayRef:
        return self[tuple(indices)]


def idx(name: str) -> IndexVar:
    return IndexVar(name)


def param(name: str) -> Param:
    return Param(name)


def scalar(name: str) -> ScalarRef:
    return ScalarRef(name)


def const(value: Union[int, float]) -> Const:
    return Const(value)


def call(func: str, *args: ExprLike) -> Call:
    return Call(func, tuple(wrap(a) for a in args))


def assign(target, expr: ExprLike) -> Assign:
    return Assign(target, wrap(expr))


def loop(
    index: str,
    lower: ExprLike,
    upper: ExprLike,
    *body: Union[Stmt, Sequence[Stmt]],
    label: str | None = None,
) -> Loop:
    stmts: list[Stmt] = []
    for item in body:
        if isinstance(item, Stmt):
            stmts.append(item)
        else:
            stmts.extend(item)
    return Loop(index, wrap(lower), wrap(upper), tuple(stmts), label=label)


def when(
    index: str,
    intervals: Sequence[Union[tuple[ExprLike, ExprLike], ExprLike]],
    body: Union[Stmt, Sequence[Stmt]],
    else_body: Union[Stmt, Sequence[Stmt]] = (),
) -> Guard:
    ivs: list[Interval] = []
    for item in intervals:
        if isinstance(item, tuple) and not isinstance(item, Affine):
            lo, hi = item
            ivs.append(Interval(wrap(lo).affine(), wrap(hi).affine()))
        else:
            ivs.append(Interval.point(wrap(item).affine()))
    if isinstance(body, Stmt):
        body = (body,)
    if isinstance(else_body, Stmt):
        else_body = (else_body,)
    return Guard(index, tuple(ivs), tuple(body), tuple(else_body))


def interval(lower: ExprLike, upper: ExprLike | None = None) -> Interval:
    lo = wrap(lower).affine()
    return Interval(lo, wrap(upper).affine() if upper is not None else lo)


def affine_expr(form: Affine, params: frozenset[str] = frozenset()) -> Expr:
    """Convert an affine form back into an expression tree.

    Names in ``params`` become :class:`Param` nodes; everything else is an
    :class:`IndexVar`.
    """
    expr: Expr | None = None
    for name, coeff in form.coeffs:
        term: Expr = Param(name) if name in params else IndexVar(name)
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if magnitude != 1:
            if magnitude.denominator == 1:
                term = Const(int(magnitude)) * term
            else:
                term = (Const(magnitude.numerator) / Const(magnitude.denominator)) * term
        if expr is None:
            expr = UnaryOp("-", term) if negative else term
        else:
            expr = expr - term if negative else expr + term
    if form.const != 0 or expr is None:
        c = form.const
        negative = c < 0
        mag = -c if negative else c
        cexpr: Expr = (
            Const(int(mag)) if mag.denominator == 1 else Const(mag.numerator) / Const(mag.denominator)
        )
        if expr is None:
            expr = UnaryOp("-", cexpr) if negative else cexpr
        elif negative:
            expr = expr - cexpr
        else:
            expr = expr + cexpr
    return expr


class ProgramBuilder:
    """Incremental builder for whole programs."""

    def __init__(self, name: str, params: Sequence[str] = ()) -> None:
        self.name = name
        self.params: list[str] = list(params)
        self.arrays: list[ArrayDecl] = []
        self.scalars: list[str] = []
        self.procedures: list[Procedure] = []
        self.body: list[Stmt] = []

    def param(self, name: str) -> Param:
        if name not in self.params:
            self.params.append(name)
        return Param(name)

    def array(self, name: str, *extents: ExprLike, elem_size: int = 8) -> ArrayHandle:
        decl = ArrayDecl(name, tuple(wrap(e) for e in extents), elem_size=elem_size)
        self.arrays.append(decl)
        return ArrayHandle(name, decl.ndim)

    def scalar(self, name: str) -> ScalarRef:
        if name not in self.scalars:
            self.scalars.append(name)
        return ScalarRef(name)

    def proc(self, name: str, formals: Sequence[str], body: Sequence[Stmt]) -> None:
        self.procedures.append(Procedure(name, tuple(formals), tuple(body)))

    def add(self, *stmts: Stmt) -> "ProgramBuilder":
        self.body.extend(stmts)
        return self

    def build(self) -> Program:
        return Program(
            name=self.name,
            params=tuple(self.params),
            arrays=tuple(self.arrays),
            scalars=tuple(self.scalars),
            procedures=tuple(self.procedures),
            body=tuple(self.body),
        )
