"""Statement-level dependence testing.

Two views are provided:

* ``depends(a, b)`` — do two access sets conflict at all (>= 1 write on a
  common array, footprints intersect)?  Used by ``GreedilyFuse`` legality
  arguments and the baselines.
* ``body_dependence_graph`` — directed dependence graph between the
  statements of one loop body, with loop-carried direction resolved where
  the iteration coupling is a known constant.  Loop distribution keeps the
  strongly connected components of this graph together (the classic
  Allen–Kennedy condition) and emits them in ``distribution_groups``
  order.
"""

from __future__ import annotations

from typing import Sequence

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
) -> list[list[int]]:
    """Dependence graph over the direct statements of ``loop``'s body.

    Adjacency lists: node ``k`` is ``loop.body[k]`` and ``v in graph[u]``
    means v must not move before u; successors are in insertion order
    (pairs ``a < b`` in order, ``a -> b`` before ``b -> a``).
    """
    # each statement (an inner loop included) as a statement of the
    # outer body, classified relative to the outer frame
    accesses = [
        collect_loop_accesses(Loop(loop.index, loop.lower, loop.upper, (stmt,)), params)
        for stmt in loop.body
    ]
    graph: list[list[int]] = [[] for _ in loop.body]
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
                graph[a].append(b)
            if bwd:
                graph[b].append(a)
    return graph


def distribution_groups(graph: Sequence[Sequence[int]]) -> list[list[int]]:
    """The strongly connected components of ``graph``, in emission order.

    Each group is a component's sorted members.  Components are numbered
    as Tarjan's algorithm with Nuutila's modification completes them
    (roots ``0..n-1``, successors in adjacency order); the condensation
    is then emitted by topological generations: the components without
    predecessors in id order, then the children each one releases, in
    the order their edges first appear.  That is not source order
    (``{0->2, 0->3, 1->2, 1->4}`` emits ``[0] [1] [3] [2] [4]``), but
    every compiled variant depends on it, so it is pinned bit for bit
    (``tests/analysis/golden_distribution_orders.json``).
    """
    n = len(graph)
    preorder = [0] * n  # 0 = not visited yet
    lowlink = [0] * n
    comp = [-1] * n
    scans = [iter(succ) for succ in graph]  # each node's resumable DFS scan
    pending: list[int] = []
    groups: list[list[int]] = []
    counter = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        path = [root]
        while path:
            v = path[-1]
            if not preorder[v]:
                counter += 1
                preorder[v] = counter
            for w in scans[v]:
                if not preorder[w]:
                    path.append(w)
                    break
            else:
                low = preorder[v]
                for w in graph[v]:
                    if comp[w] < 0:
                        reach = lowlink[w] if preorder[w] > preorder[v] else preorder[w]
                        low = min(low, reach)
                lowlink[v] = low
                path.pop()
                if low < preorder[v]:
                    pending.append(v)
                    continue
                members = [v]
                while pending and preorder[pending[-1]] > preorder[v]:
                    members.append(pending.pop())
                for k in members:
                    comp[k] = len(groups)
                groups.append(sorted(members))
    children: list[list[int]] = [[] for _ in groups]
    indegree = [0] * len(groups)
    for u in range(n):
        for v in graph[u]:
            cu, cv = comp[u], comp[v]
            if cu != cv and cv not in children[cu]:
                children[cu].append(cv)
                indegree[cv] += 1
    # one FIFO pass is generation order: a generation's releases queue
    # up behind it, in release order
    order = [c for c in range(len(groups)) if not indegree[c]]
    for c in order:
        for child in children[c]:
            indegree[child] -= 1
            if not indegree[child]:
                order.append(child)
    return [groups[c] for c in order]
