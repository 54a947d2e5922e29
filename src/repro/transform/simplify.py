"""Expression simplification / constant folding (§4.1 constant propagation).

Any affine subexpression is rewritten to its canonical form (``(3 - 2)``
becomes ``1``, ``(i + 0)`` becomes ``i``, ``((j + -1) + 1)`` becomes
``j``), and non-affine operators fold constant operands.  Run after code
generation this de-noises fused output; run before analysis it is the
constant propagation the paper applies to loop statements.
"""

from __future__ import annotations

from dataclasses import replace

from ..lang import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    CallStmt,
    Const,
    Expr,
    Guard,
    Loop,
    NotAffineError,
    Program,
    ScalarRef,
    Stmt,
    UnaryOp,
    affine_expr,
)


def simplify_expr(expr: Expr, params: frozenset[str]) -> Expr:
    """Canonicalize affine parts; fold constants elsewhere."""
    try:
        form = expr.affine()
    except NotAffineError:
        pass
    else:
        return affine_expr(form, params)
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.array, tuple(simplify_expr(e, params) for e in expr.indices)
        )
    if isinstance(expr, BinOp):
        left = simplify_expr(expr.left, params)
        right = simplify_expr(expr.right, params)
        if isinstance(left, Const) and isinstance(right, Const):
            return _fold(expr.op, left.value, right.value)
        # algebraic identities
        if expr.op in ("+", "-") and isinstance(right, Const) and right.value == 0:
            return left
        if expr.op == "+" and isinstance(left, Const) and left.value == 0:
            return right
        if expr.op == "*" and isinstance(right, Const) and right.value == 1:
            return left
        if expr.op == "*" and isinstance(left, Const) and left.value == 1:
            return right
        if expr.op == "/" and isinstance(right, Const) and right.value == 1:
            return left
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        inner = simplify_expr(expr.operand, params)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return UnaryOp(expr.op, inner)
    if isinstance(expr, Call):
        return Call(expr.func, tuple(simplify_expr(a, params) for a in expr.args))
    return expr


def _fold(op: str, a, b) -> Expr:
    if op == "+":
        return Const(a + b)
    if op == "-":
        return Const(a - b)
    if op == "*":
        return Const(a * b)
    if op == "/":
        # data-value (float) division; a zero divisor stays unfolded so no
        # pass raises what only executing the statement should
        return Const(a / b) if b != 0 else BinOp(op, Const(a), Const(b))
    raise NotAffineError(f"unknown operator {op!r}")  # pragma: no cover


def simplify_stmt(stmt: Stmt, params: frozenset[str]) -> Stmt:
    if isinstance(stmt, Assign):
        return Assign(
            simplify_expr(stmt.target, params), simplify_expr(stmt.expr, params)
        )
    if isinstance(stmt, Loop):
        return replace(
            stmt,
            lower=simplify_expr(stmt.lower, params),
            upper=simplify_expr(stmt.upper, params),
            body=tuple(simplify_stmt(s, params) for s in stmt.body),
        )
    if isinstance(stmt, Guard):
        return Guard(
            stmt.index,
            stmt.intervals,
            tuple(simplify_stmt(s, params) for s in stmt.body),
            tuple(simplify_stmt(s, params) for s in stmt.else_body),
        )
    if isinstance(stmt, CallStmt):
        return CallStmt(stmt.proc, tuple(simplify_expr(a, params) for a in stmt.args))
    return stmt


def simplify_program(program: Program) -> Program:
    """Simplify every expression in the program body."""
    params = frozenset(program.params)
    return program.with_body(
        tuple(simplify_stmt(s, params) for s in program.body)
    )


def propagate_scalar_constants(program: Program) -> Program:
    """Substitute scalars that are assigned exactly one constant, first.

    The paper's constant propagation; our kernels use few scalars, so the
    single-assignment case covers what occurs in practice.
    """
    from ..lang import assignments_in

    assigned: dict[str, list] = {}
    for a in assignments_in(program.body):
        if isinstance(a.target, ScalarRef):
            assigned.setdefault(a.target.name, []).append(a.expr)
    constants = {
        name: exprs[0]
        for name, exprs in assigned.items()
        if len(exprs) == 1 and isinstance(exprs[0], Const)
    }
    if not constants:
        return program

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, ScalarRef) and expr.name in constants:
            return constants[expr.name]
        if isinstance(expr, ArrayRef):
            return ArrayRef(expr.array, tuple(rewrite(e) for e in expr.indices))
        if isinstance(expr, BinOp):
            return BinOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, Call):
            return Call(expr.func, tuple(rewrite(a) for a in expr.args))
        return expr

    def rewrite_stmt(stmt: Stmt) -> Stmt:
        if isinstance(stmt, Assign):
            target = stmt.target
            if isinstance(target, ArrayRef):
                target = ArrayRef(
                    target.array, tuple(rewrite(e) for e in target.indices)
                )
            return Assign(target, rewrite(stmt.expr))
        if isinstance(stmt, Loop):
            return replace(
                stmt,
                lower=rewrite(stmt.lower),
                upper=rewrite(stmt.upper),
                body=tuple(rewrite_stmt(s) for s in stmt.body),
            )
        if isinstance(stmt, Guard):
            return Guard(
                stmt.index,
                stmt.intervals,
                tuple(rewrite_stmt(s) for s in stmt.body),
                tuple(rewrite_stmt(s) for s in stmt.else_body),
            )
        return stmt

    return program.with_body(tuple(rewrite_stmt(s) for s in program.body))
