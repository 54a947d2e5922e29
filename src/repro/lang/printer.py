"""Pretty-printer: lower a :class:`Program` back to DSL source text.

``parse(to_source(p))`` reproduces ``p`` up to cosmetic loop labels — the
property-based round-trip tests rely on this, and it is what makes the
system a genuine *source-to-source* transformer: every optimized program
can be printed and inspected as code.
"""

from __future__ import annotations

from .affine import Affine
from .expr import (
    ArrayRef,
    BinOp,
    Call,
    Const,
    Expr,
    IndexVar,
    Param,
    ScalarRef,
    UnaryOp,
)
from .program import Procedure, Program
from .stmt import Assign, CallStmt, Guard, Interval, Loop, Stmt

_INDENT = "  "


def expr_to_source(expr: Expr) -> str:
    """Render an expression as parseable DSL text."""
    if isinstance(expr, Const):
        return repr(expr.value) if isinstance(expr.value, float) else str(expr.value)
    if isinstance(expr, (Param, IndexVar, ScalarRef)):
        return expr.name
    if isinstance(expr, ArrayRef):
        inner = ", ".join(expr_to_source(e) for e in expr.indices)
        return f"{expr.array}[{inner}]"
    if isinstance(expr, BinOp):
        return f"({expr_to_source(expr.left)} {expr.op} {expr_to_source(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"(-{expr_to_source(expr.operand)})"
    if isinstance(expr, Call):
        inner = ", ".join(expr_to_source(a) for a in expr.args)
        return f"{expr.func}({inner})"
    raise TypeError(f"cannot print expression {expr!r}")


def affine_to_source(form: Affine) -> str:
    """Render an affine form as parseable DSL text (terms then constant)."""
    parts: list[str] = []
    for name, coeff in form.coeffs:
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        elif coeff.denominator == 1:
            term = f"{int(coeff)}*{name}"
        else:
            term = f"({coeff.numerator}/{coeff.denominator})*{name}"
    # join with explicit signs
        parts.append(term)
    if form.const != 0 or not parts:
        c = form.const
        parts.append(str(int(c)) if c.denominator == 1 else f"({c.numerator}/{c.denominator})")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def interval_to_source(iv: Interval) -> str:
    if iv.lower == iv.upper:
        return affine_to_source(iv.lower)
    return f"{affine_to_source(iv.lower)}:{affine_to_source(iv.upper)}"


def stmt_to_lines(stmt: Stmt, depth: int = 0) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Assign):
        return [f"{pad}{expr_to_source(stmt.target)} = {expr_to_source(stmt.expr)}"]
    if isinstance(stmt, Loop):
        head = (
            f"{pad}for {stmt.index} = {expr_to_source(stmt.lower)}, "
            f"{expr_to_source(stmt.upper)} {{"
        )
        lines = [head]
        for s in stmt.body:
            lines.extend(stmt_to_lines(s, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, Guard):
        ranges = ", ".join(interval_to_source(iv) for iv in stmt.intervals)
        lines = [f"{pad}when {stmt.index} in [{ranges}] {{"]
        for s in stmt.body:
            lines.extend(stmt_to_lines(s, depth + 1))
        if stmt.else_body:
            lines.append(f"{pad}}} else {{")
            for s in stmt.else_body:
                lines.extend(stmt_to_lines(s, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, CallStmt):
        args = ", ".join(expr_to_source(a) for a in stmt.args)
        return [f"{pad}call {stmt.proc}({args})"]
    raise TypeError(f"cannot print statement {stmt!r}")


def proc_to_lines(proc: Procedure) -> list[str]:
    formals = ", ".join(proc.formals)
    lines = [f"proc {proc.name}({formals}) {{"]
    for s in proc.body:
        lines.extend(stmt_to_lines(s, 1))
    lines.append("}")
    return lines


def to_source(program: Program) -> str:
    """Render a whole program as DSL source text."""
    lines: list[str] = [f"program {program.name}"]
    if program.params:
        lines.append("param " + ", ".join(program.params))
    for decl in program.arrays:
        dims = ", ".join(expr_to_source(e) for e in decl.extents)
        lines.append(f"real {decl.name}[{dims}]")
    if program.scalars:
        lines.append("scalar " + ", ".join(program.scalars))
    for proc in program.procedures:
        lines.append("")
        lines.extend(proc_to_lines(proc))
    lines.append("")
    for stmt in program.body:
        lines.extend(stmt_to_lines(stmt))
    return "\n".join(lines) + "\n"
