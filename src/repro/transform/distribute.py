"""Maximal loop distribution (§4.1, third preliminary transformation).

Each loop's body statements are partitioned into the strongly connected
components of the body dependence graph (the Allen–Kennedy condition);
each SCC becomes its own loop, emitted in topological order.  Distribution
runs innermost-first so deeply nested code is fully scattered before
fusion rebuilds exactly the groupings that pay off.
"""

from __future__ import annotations

from ..analysis import body_dependence_graph, distribution_groups
from ..lang import Assumptions, Guard, Loop, Program, Stmt


def _distribute_stmt(
    stmt: Stmt, fixed: tuple[str, ...], assume
) -> list[Stmt]:
    if isinstance(stmt, Guard):
        body: list[Stmt] = []
        for s in stmt.body:
            body.extend(_distribute_stmt(s, fixed, assume))
        else_body: list[Stmt] = []
        for s in stmt.else_body:
            else_body.extend(_distribute_stmt(s, fixed, assume))
        return [Guard(stmt.index, stmt.intervals, tuple(body), tuple(else_body))]
    if not isinstance(stmt, Loop):
        return [stmt]
    # innermost first; the loop's own index is a fixed symbolic constant
    # from the inner loops' point of view
    low = stmt.lower.affine().lower_bound(assume)
    inner_assume = assume.with_var(stmt.index, None if low is None else int(low))
    inner_fixed = fixed + (stmt.index,)
    body = []
    for s in stmt.body:
        body.extend(_distribute_stmt(s, inner_fixed, inner_assume))
    loop = stmt.with_body(body)
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
    assume = Assumptions()
    body: list[Stmt] = []
    for stmt in program.body:
        body.extend(_distribute_stmt(stmt, tuple(program.params), assume))
    return program.with_body(tuple(body))
