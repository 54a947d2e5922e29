"""Expression simplification / constant folding (§4.1 constant propagation).

Any affine subexpression is rewritten to its canonical form (``(3 - 2)``
becomes ``1``, ``(i + 0)`` becomes ``i``, ``((j + -1) + 1)`` becomes
``j``), and non-affine operators fold constant operands.  Run after code
generation this de-noises fused output; run before analysis it is the
constant propagation the paper applies to loop statements.
"""

from __future__ import annotations

from collections import Counter

from ..lang import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    NotAffineError,
    Program,
    ScalarRef,
    UnaryOp,
    affine_expr,
    assignments_in,
    map_exprs,
)


def _simplify(expr: Expr, params: frozenset[str]) -> Expr:
    """One node, its children already simplified: canonicalize an affine
    node, fold constant operands and identities of any other."""
    if isinstance(expr, (ArrayRef, Call, ScalarRef)):
        return expr  # never affine, and nothing to fold
    if isinstance(expr, Const) and type(expr.value) is int and expr.value >= 0:
        return expr  # already canonical
    try:
        form = expr.affine()
    except NotAffineError:
        pass
    else:
        return affine_expr(form, params)
    if isinstance(expr, BinOp):
        op, left, right = expr.op, expr.left, expr.right
        if isinstance(left, Const) and isinstance(right, Const):
            return _fold(expr)
        # algebraic identities
        if op in ("+", "-") and isinstance(right, Const) and right.value == 0:
            return left
        if op == "+" and isinstance(left, Const) and left.value == 0:
            return right
        if op == "*" and isinstance(right, Const) and right.value == 1:
            return left
        if op == "*" and isinstance(left, Const) and left.value == 1:
            return right
        if op == "/" and isinstance(right, Const) and right.value == 1:
            return left
    if isinstance(expr, UnaryOp) and isinstance(expr.operand, Const):
        return Const(-expr.operand.value)
    return expr


def _fold(expr: BinOp) -> Expr:
    a, b = expr.left.value, expr.right.value
    if expr.op == "+":
        return Const(a + b)
    if expr.op == "-":
        return Const(a - b)
    if expr.op == "*":
        return Const(a * b)
    if expr.op == "/":
        # data-value (float) division; a zero divisor stays unfolded so no
        # pass raises what only executing the statement should
        return Const(a / b) if b != 0 else expr
    raise NotAffineError(f"unknown operator {expr.op!r}")  # pragma: no cover


def simplify_program(program: Program) -> Program:
    """Simplify every expression in the program body."""
    params = frozenset(program.params)
    return program.with_body(
        tuple(map_exprs(s, lambda e: _simplify(e, params)) for s in program.body)
    )


def propagate_scalar_constants(program: Program) -> Program:
    """Substitute a scalar's constant into the statements that follow it.

    The paper's constant propagation, for the case our kernels have: an
    unconditional top-level ``c = <constant>`` of the main body that is
    the scalar's only assignment.  Only the top-level statements after
    it see the constant on every step; the ones before read the initial
    value on the first step, so they keep the read.
    """
    writes = Counter(
        a.target.name for a in assignments_in(program.body)
        if isinstance(a.target, ScalarRef)
    )
    known: dict[str, Const] = {}
    body = []
    for stmt in program.body:
        if known:
            stmt = map_exprs(
                stmt,
                lambda e: known.get(e.name, e) if isinstance(e, ScalarRef) else e,
            )
        body.append(stmt)
        if (
            isinstance(stmt, Assign)
            and isinstance(stmt.target, ScalarRef)
            and isinstance(stmt.expr, Const)
            and writes[stmt.target.name] == 1
        ):
            known[stmt.target.name] = stmt.expr
    return program.with_body(tuple(body)) if known else program
