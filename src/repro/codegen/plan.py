"""Parameter-free structural codegen plan (pass-manager / lint surface).

The tracer makes its final supported-subset decisions with a concrete
parameter binding in hand (coefficients must fold to integers, ranges
must be known).  But most disqualifiers are *structural*
— an un-inlined call, a non-affine subscript, a fractional stride — and
visible on the bare AST.  :func:`plan_program` classifies each top-level
nest on that basis so the ``codegen-plan`` pass can annotate pipelines
and the ``S401`` lint can warn about silent interpreter fallback before
anything is ever traced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import (
    AnalysisError,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    CallStmt,
    Guard,
    Loop,
    Program,
    Stmt,
    UnaryOp,
    array_reads,
)


@dataclass(frozen=True)
class NestPlan:
    """Codegen outlook for one top-level statement of a program body."""

    position: int
    kind: str  # "loop", "guard", "assign", "call"
    index: Optional[str]  # outermost loop variable, when kind == "loop"
    traceable: bool
    reason: Optional[str] = None  # why the tracer will fall back


@dataclass(frozen=True)
class CodegenPlan:
    """Structural codegen outlook for a whole program."""

    program_name: str
    nests: tuple[NestPlan, ...]

    @property
    def fallback_nests(self) -> tuple[NestPlan, ...]:
        return tuple(n for n in self.nests if not n.traceable)

    @property
    def fully_traceable(self) -> bool:
        return not self.fallback_nests

    def summary(self) -> str:
        total = len(self.nests)
        bad = len(self.fallback_nests)
        return f"{total - bad}/{total} nests traceable"


def _check_stmt(stmt: Stmt) -> Optional[str]:
    """First structural disqualifier in ``stmt``'s subtree, or None."""
    if isinstance(stmt, CallStmt):
        return f"call to {stmt.proc!r} (not inlined)"
    if isinstance(stmt, Assign):
        try:
            refs = [r for r in array_reads(stmt.expr)]
            if isinstance(stmt.target, ArrayRef):
                refs.append(stmt.target)
            for ref in refs:
                for sub in ref.indices:
                    form = sub.affine()
                    for _, coeff in form.coeffs:
                        if coeff.denominator != 1:
                            return f"fractional subscript stride in {ref.array}"
        except AnalysisError as exc:
            return str(exc)
        return _check_expr(stmt.expr)
    if isinstance(stmt, Loop):
        for e in (stmt.lower, stmt.upper):
            try:
                e.affine()
            except AnalysisError as exc:
                return str(exc)
        for s in stmt.body:
            reason = _check_stmt(s)
            if reason:
                return reason
        return None
    if isinstance(stmt, Guard):
        for s in stmt.body + stmt.else_body:
            reason = _check_stmt(s)
            if reason:
                return reason
        return None
    return f"unsupported statement {type(stmt).__name__}"


def _check_expr(expr) -> Optional[str]:
    if isinstance(expr, BinOp):
        return _check_expr(expr.left) or _check_expr(expr.right)
    if isinstance(expr, UnaryOp):
        return _check_expr(expr.operand)
    if isinstance(expr, Call):
        for a in expr.args:
            reason = _check_expr(a)
            if reason:
                return reason
    return None


def plan_program(program: Program) -> CodegenPlan:
    """Classify each top-level nest of ``program`` for the codegen tracer."""
    nests = []
    for pos, stmt in enumerate(program.body):
        if isinstance(stmt, Loop):
            kind, index = "loop", stmt.index
        elif isinstance(stmt, Guard):
            kind, index = "guard", None
        elif isinstance(stmt, Assign):
            kind, index = "assign", None
        else:
            kind, index = "call", None
        reason = _check_stmt(stmt)
        nests.append(NestPlan(pos, kind, index, reason is None, reason))
    return CodegenPlan(program.name, tuple(nests))


def lint_codegen(program: Program, inline: bool = True):
    """The ``S401`` silent-fallback lint as a DiagnosticBag.

    ``inline`` first expands procedure calls the way the measurement
    harness does before tracing, so a program is only flagged when the
    *measured* form would fall back.
    """
    from ..verify.diagnostics import DiagnosticBag

    bag = DiagnosticBag()
    target = program
    if inline and program.procedures:
        from ..transform import inline_procedures

        try:
            target = inline_procedures(program)
        except Exception:  # un-inlinable: lint the raw form instead
            target = program
    plan = plan_program(target)
    for nest in plan.fallback_nests:
        label = f"nest {nest.position}" + (
            f" (loop {nest.index})" if nest.index else ""
        )
        bag.warning(
            "S401",
            f"codegen falls back to the interpreter: {nest.reason}",
            where=f"{program.name}: {label}",
            nest=nest.position,
            reason=nest.reason,
        )
    return bag
