"""Maximal loop distribution (§4.1, third preliminary transformation).

Each loop's body statements are partitioned into the strongly connected
components of the body dependence graph (the Allen–Kennedy condition);
each SCC becomes its own loop, emitted in topological order.  Distribution
runs innermost-first so deeply nested code is fully scattered before
fusion rebuilds exactly the groupings that pay off.
"""

from __future__ import annotations

from ..analysis import body_dependence_graph, distribution_groups
from ..lang import Assumptions, Loop, Program, Stmt, map_body


def _distribute_stmt(
    stmt: Stmt, fixed: tuple[str, ...], assume
) -> list[Stmt]:
    if not isinstance(stmt, Loop):
        return [stmt.map_bodies(lambda s: _distribute_stmt(s, fixed, assume))]
    # innermost first; the loop's own index is a fixed symbolic constant
    # from the inner loops' point of view
    low = stmt.lower.affine().lower_bound(assume)
    inner_assume = assume.with_var(stmt.index, None if low is None else int(low))
    inner_fixed = fixed + (stmt.index,)
    loop = stmt.map_bodies(lambda s: _distribute_stmt(s, inner_fixed, inner_assume))
    if len(loop.body) <= 1:
        return [loop]
    groups = distribution_groups(body_dependence_graph(loop, fixed, assume))
    out: list[Stmt] = []
    for members in groups:
        piece = tuple(loop.body[i] for i in members)
        label = loop.label
        if label and len(groups) > 1:
            label = f"{label}.{len(out)}"
        out.append(Loop(loop.index, loop.lower, loop.upper, piece, label=label))
    return out


def distribute_loops(program: Program) -> Program:
    """Maximally distribute every loop in the program."""
    fixed, assume = tuple(program.params), Assumptions()
    return program.with_body(
        map_body(program.body, lambda s: _distribute_stmt(s, fixed, assume))
    )
