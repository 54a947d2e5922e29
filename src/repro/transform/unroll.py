"""Loop unrolling of small constant-trip loops (§4.1).

Loops iterating a data dimension of small constant size (e.g. SP's
5-element component dimension) are fully unrolled so that array splitting
can eliminate that dimension.
"""

from __future__ import annotations

from ..lang import Loop, Program, Stmt, const, map_body
from .subst import subst_stmt


def _unroll_stmt(stmt: Stmt, max_trip: int) -> list[Stmt]:
    stmt = stmt.map_bodies(lambda s: _unroll_stmt(s, max_trip))
    if isinstance(stmt, Loop):
        lo_f, hi_f = stmt.lower.affine(), stmt.upper.affine()
        if lo_f.is_constant() and hi_f.is_constant():
            lo, hi = lo_f.int_value(), hi_f.int_value()
            if 0 < hi - lo + 1 <= max_trip:
                return [
                    subst_stmt(s, {stmt.index: const(value)})
                    for value in range(lo, hi + 1)
                    for s in stmt.body
                ]
    return [stmt]


def unroll_small_loops(program: Program, max_trip: int = 5) -> Program:
    """Fully unroll every loop whose constant trip count is <= max_trip."""
    return program.with_body(
        map_body(program.body, lambda s: _unroll_stmt(s, max_trip))
    )
