"""Dependence-graph tests (loop distribution legality substrate)."""

from repro.analysis import (
    body_dependence_graph,
    collect_loop_accesses,
    depends,
    distribution_groups,
)
from repro.lang import Assumptions

from conftest import build

ASSUME = Assumptions()


def graph_for(source):
    p = build(source)
    return body_dependence_graph(p.body[0], p.params, ASSUME), p


def test_forward_flow_dependence_only():
    g, _ = graph_for(
        """
        program t
        param N
        real A[N], B[N]
        for i = 1, N {
          A[i] = 1.0
          B[i] = f(A[i])
        }
        """
    )
    assert 1 in g[0]
    assert 0 not in g[1]


def test_backward_carried_dependence():
    # statement 1 reads A[i+1], written by statement 0 in a LATER
    # iteration: the dependence flows 1 -> 0 (must not move 0 before 1)
    g, _ = graph_for(
        """
        program t
        param N
        real A[N], B[N]
        for i = 1, N - 1 {
          A[i] = 1.0
          B[i] = f(A[i + 1])
        }
        """
    )
    assert 0 in g[1]
    assert 1 not in g[0]


def test_recurrence_cycle():
    g, _ = graph_for(
        """
        program t
        param N
        real A[N], B[N]
        for i = 2, N {
          A[i] = f(B[i - 1])
          B[i] = g(A[i])
        }
        """
    )
    # A depends on B's previous iteration; B depends on A's current:
    # a genuine cycle -> single SCC, distribution must keep them together
    assert any(len(group) == 2 for group in distribution_groups(g))


def test_independent_statements_unordered():
    g, _ = graph_for(
        """
        program t
        param N
        real A[N], B[N]
        for i = 1, N {
          A[i] = 1.0
          B[i] = 2.0
        }
        """
    )
    assert g == [[], []]


def test_items_depend_top_level():
    p = build(
        """
        program t
        param N
        real A[N], B[N], C[N]
        for i = 1, N { A[i] = f(B[i]) }
        for i = 1, N { C[i] = g(A[i]) }
        for i = 1, N { B[i] = g(C[i]) }
        """
    )
    l1, l2, l3 = (collect_loop_accesses(loop, p.params) for loop in p.body)
    assert depends(l1, l2, ASSUME)  # flow on A
    assert depends(l1, l3, ASSUME)  # anti on B
    assert depends(l2, l3, ASSUME)  # flow on C
