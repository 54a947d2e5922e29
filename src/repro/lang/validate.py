"""Structural validation of programs.

``validate(program)`` checks the invariants every later pass assumes:

* every array reference names a declared array with the right arity;
* every identifier in every expression is a parameter, a declared scalar,
  or a loop index currently in scope;
* loop bounds and subscripts are affine in parameters and in-scope indices;
* no quotient has a literal zero divisor;
* loop indices do not shadow parameters, arrays, or outer indices;
* guard variables are loop indices in scope.

All problems are collected — validation does not stop at the first error —
and raised together as a :class:`ValidationError` whose ``issues`` tuple
carries one :class:`ValidationIssue` (path-like location + message) per
problem.  ``validation_issues`` returns the same list without raising,
which is what the :mod:`repro.verify` lint framework builds on.  Both are
cheap enough to run after every transformation (the integration tests do
exactly that).
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotAffineError, ValidationError, ValidationIssue
from .expr import ArrayRef, BinOp, Const, Expr, IndexVar, Param, ScalarRef
from .program import Program
from .stmt import Assign, CallStmt, Guard, Loop, Stmt


class _Checker:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.params = set(program.params)
        self.scalars = set(program.scalars)
        self.arrays = {a.name: a for a in program.arrays}
        self.index_scope: list[str] = []
        self.issues: list[ValidationIssue] = []

    def fail(self, where: str, message: str) -> None:
        self.issues.append(ValidationIssue(where, message))

    # -- expressions ----------------------------------------------------------

    def check_expr(self, expr: Expr, where: str) -> None:
        for node in expr.walk():
            if isinstance(node, Param):
                if node.name not in self.params:
                    self.fail(where, f"undeclared parameter {node.name!r}")
            elif isinstance(node, IndexVar):
                if node.name not in self.index_scope:
                    self.fail(where, f"loop index {node.name!r} used out of scope")
            elif isinstance(node, ScalarRef):
                if node.name not in self.scalars:
                    self.fail(where, f"undeclared scalar {node.name!r}")
            elif (
                isinstance(node, BinOp)
                and node.op == "/"
                and isinstance(node.right, Const)
                and node.right.value == 0
            ):
                self.fail(where, f"division by literal zero: {node}")
            elif isinstance(node, ArrayRef):
                decl = self.arrays.get(node.array)
                if decl is None:
                    self.fail(where, f"undeclared array {node.array!r}")
                elif len(node.indices) != decl.ndim:
                    self.fail(
                        where,
                        f"array {node.array!r} has {decl.ndim} dims, "
                        f"subscripted with {len(node.indices)}",
                    )
                for k, sub in enumerate(node.indices):
                    try:
                        sub.affine()
                    except NotAffineError:
                        self.fail(
                            where,
                            f"subscript {k} of {node.array!r} is not affine: {sub}",
                        )

    def check_bound(self, expr: Expr, where: str) -> None:
        self.check_expr(expr, where)
        try:
            expr.affine()
        except NotAffineError:
            self.fail(where, f"loop bound is not affine: {expr}")

    # -- statements -------------------------------------------------------------

    def check_stmt(self, stmt: Stmt, where: str) -> None:
        if isinstance(stmt, Assign):
            self.check_expr(stmt.target, f"{where} lhs")
            self.check_expr(stmt.expr, f"{where} rhs")
        elif isinstance(stmt, Loop):
            if stmt.index in self.params:
                self.fail(where, f"loop index {stmt.index!r} shadows a parameter")
            if stmt.index in self.arrays:
                self.fail(where, f"loop index {stmt.index!r} shadows an array")
            if stmt.index in self.index_scope:
                self.fail(where, f"loop index {stmt.index!r} shadows an outer loop")
            self.check_bound(stmt.lower, f"{where} lower bound")
            self.check_bound(stmt.upper, f"{where} upper bound")
            self.index_scope.append(stmt.index)
            self.check_body(stmt.body, f"{where}/for {stmt.index}")
            self.index_scope.pop()
        elif isinstance(stmt, Guard):
            if stmt.index not in self.index_scope:
                self.fail(where, f"guard on {stmt.index!r}, not a loop index in scope")
            for iv in stmt.intervals:
                for end in (iv.lower, iv.upper):
                    for name in end.variables():
                        if name not in self.params and name not in self.index_scope:
                            self.fail(
                                where, f"guard interval uses unknown name {name!r}"
                            )
            self.check_body(stmt.body, f"{where}/when {stmt.index}")
            self.check_body(stmt.else_body, f"{where}/when {stmt.index} else")
        elif isinstance(stmt, CallStmt):
            names = {p.name for p in self.program.procedures}
            if stmt.proc not in names:
                self.fail(where, f"call to undeclared procedure {stmt.proc!r}")
            else:
                proc = self.program.procedure(stmt.proc)
                if len(stmt.args) != len(proc.formals):
                    self.fail(
                        where,
                        f"procedure {stmt.proc!r} takes {len(proc.formals)} args, "
                        f"got {len(stmt.args)}",
                    )
            for a in stmt.args:
                self.check_expr(a, f"{where} arg")
        else:
            self.fail(where, f"unknown statement type {type(stmt).__name__}")

    def check_body(self, body: Sequence[Stmt], where: str) -> None:
        for k, stmt in enumerate(body):
            self.check_stmt(stmt, f"{where}[{k}]")

    def run(self) -> list[ValidationIssue]:
        overlap = self.params & set(self.arrays)
        if overlap:
            self.fail("decls", f"names declared as both param and array: {overlap}")
        overlap = self.scalars & set(self.arrays)
        if overlap:
            self.fail("decls", f"names declared as both scalar and array: {overlap}")
        for proc in self.program.procedures:
            self.index_scope.extend(proc.formals)
            self.check_body(proc.body, f"proc {proc.name}")
            del self.index_scope[len(self.index_scope) - len(proc.formals):]
        self.check_body(self.program.body, "body")
        return self.issues


def validation_issues(program: Program) -> list[ValidationIssue]:
    """All structural problems in ``program`` (empty when valid)."""
    return _Checker(program).run()


def validate(program: Program) -> Program:
    """Validate structural invariants; returns the program for chaining.

    Raises :class:`ValidationError` carrying *every* problem found, not
    just the first.
    """
    issues = validation_issues(program)
    if issues:
        raise ValidationError.from_issues(program.name, tuple(issues))
    return program
