"""Procedure inlining (paper §4.1, first preliminary transformation).

The paper brings all computation loops into one procedure before analysis
("inlining is done by hand; [it] can be automated") — here it *is*
automated: every :class:`CallStmt` is replaced by the callee's body with
formals substituted by the actual argument expressions.  Formals are
index-like (affine) values; recursive call chains are expanded up to a
depth limit so accidental recursion fails loudly.
"""

from __future__ import annotations

from dataclasses import replace

from ..lang import CallStmt, Loop, Program, Stmt, TransformError, map_body
from .subst import FreshNames, bound_names, rename_bound, subst_stmt

_MAX_DEPTH = 32


def _expand(
    stmt: Stmt,
    program: Program,
    fresh: FreshNames,
    depth: int,
    enclosing: frozenset[str] = frozenset(),
) -> list[Stmt]:
    """Inline the calls in ``stmt``, which sits inside loops over the
    ``enclosing`` indices: a callee's loops are renamed away from them
    (an argument may name one) as well as from the formals."""
    if isinstance(stmt, CallStmt):
        if depth > _MAX_DEPTH:
            raise TransformError(
                f"procedure {stmt.proc!r}: inlining exceeded depth {_MAX_DEPTH}"
            )
        proc = program.procedure(stmt.proc)
        bindings = dict(zip(proc.formals, stmt.args))
        out: list[Stmt] = []
        for s in proc.body:
            renamed = rename_bound(s, set(bindings) | enclosing, fresh)
            substituted = subst_stmt(renamed, bindings)
            out.extend(_expand(substituted, program, fresh, depth + 1, enclosing))
        return out
    if isinstance(stmt, Loop):
        enclosing = enclosing | {stmt.index}
    return [stmt.map_bodies(lambda s: _expand(s, program, fresh, depth, enclosing))]


def inline_procedures(program: Program) -> Program:
    """Expand every procedure call; the result has no procedures left."""
    if not program.procedures:
        return program
    fresh = FreshNames(set(program.params))
    fresh.reserve(bound_names(program.body))
    for proc in program.procedures:
        fresh.reserve(bound_names(proc.body))
        fresh.reserve(proc.formals)
    body = map_body(program.body, lambda s: _expand(s, program, fresh, 0))
    return replace(program, body=body, procedures=())
