"""Statement-level dependence testing.

Two views are provided:

* ``depends(a, b)`` — do two access sets conflict at all (>= 1 write on a
  common array, footprints intersect)?  Used by ``GreedilyFuse`` legality
  arguments and the baselines.
* ``body_dependence_graph`` — directed dependence graph between the
  statements of one loop body, with loop-carried direction resolved where
  the iteration coupling is a known constant.  Loop distribution keeps the
  strongly connected components of this graph together (the classic
  Allen–Kennedy condition).
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..lang import Assumptions, Loop
from .access import RefAccess, collect_loop_accesses
from .constraint import Conflict, ConflictKind, pair_conflict


def depends(
    acc1: Sequence[RefAccess], acc2: Sequence[RefAccess], assume: Assumptions
) -> bool:
    """True when the two access sets have any conflicting (dep) pair."""
    by_array: dict[str, list[RefAccess]] = {}
    for r in acc2:
        by_array.setdefault(r.array, []).append(r)
    for r1 in acc1:
        for r2 in by_array.get(r1.array, ()):
            if not (r1.is_write or r2.is_write):
                continue
            if pair_conflict(r1, r2, assume) is not None:
                return True
    return False


def _edge_directions(conflict: Conflict) -> tuple[bool, bool]:
    """(forward a->b, backward b->a) directions implied by one conflict.

    ``a`` precedes ``b`` in the loop body.  For a constant iteration
    coupling ``u_b = u_a + delta`` (bound = -delta): delta >= 0 means the
    dependence flows a->b (same or later iteration); delta < 0 flows b->a
    (b's conflicting instance ran in an earlier iteration).  Everything
    else is treated bidirectionally — conservative, which for distribution
    only means keeping statements together.
    """
    if conflict.kind is ConflictKind.DELTA and conflict.bound is not None:
        if conflict.bound.is_constant():
            neg_delta = conflict.bound.int_value()  # bound = -delta
            delta = -neg_delta
            if delta >= 0:
                return True, False
            return False, True
    return True, True


def body_dependence_graph(
    loop: Loop, params: Sequence[str], assume: Assumptions
) -> nx.DiGraph:
    """Dependence graph over the direct statements of ``loop``'s body.

    Node ``k`` is ``loop.body[k]``; an edge u -> v means v must not move
    before u.
    """
    # each statement (an inner loop included) as a statement of the
    # outer body, classified relative to the outer frame
    accesses = [
        collect_loop_accesses(Loop(loop.index, loop.lower, loop.upper, (stmt,)), params)
        for stmt in loop.body
    ]
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(loop.body)))
    for a in range(len(loop.body)):
        for b in range(a + 1, len(loop.body)):
            fwd = bwd = False
            by_array: dict[str, list[RefAccess]] = {}
            for r in accesses[b]:
                by_array.setdefault(r.array, []).append(r)
            for r1 in accesses[a]:
                for r2 in by_array.get(r1.array, ()):
                    if not (r1.is_write or r2.is_write):
                        continue
                    c = pair_conflict(r1, r2, assume)
                    if c is None:
                        continue
                    f, w = _edge_directions(c)
                    fwd = fwd or f
                    bwd = bwd or w
                    if fwd and bwd:
                        break
                if fwd and bwd:
                    break
            if fwd:
                graph.add_edge(a, b)
            if bwd:
                graph.add_edge(b, a)
    return graph
