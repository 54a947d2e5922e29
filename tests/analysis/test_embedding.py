"""Statement-embedding point tests (paper Fig. 4a machinery)."""

from repro.analysis import (
    collect_loop_accesses,
    collect_stmt_accesses,
    embed_after,
    embed_before,
)
from repro.lang import Affine, Assumptions

from conftest import build

ASSUME = Assumptions()


def parts(source):
    p = build(source)
    return p, p.params


def test_embed_after_anti_dependence():
    # the loop reads A[2] at i=3; moving the write A[2]=0 earlier than
    # iteration 3 would be illegal
    p, params = parts(
        """
        program t
        param N
        real A[N]
        for i = 3, N - 2 { A[i] = f(A[i - 1]) }
        A[2] = 0.0
        """
    )
    loop_acc = collect_loop_accesses(p.body[0], params)
    stmt_acc = collect_stmt_accesses(p.body[1], params)
    point = embed_after(loop_acc, stmt_acc, ASSUME)
    assert point.ok
    assert point.at == Affine.constant(3)


def test_embed_after_unconstrained_statement():
    # A[1] = A[N] touches only cells the loop never accesses
    p, params = parts(
        """
        program t
        param N
        real A[N]
        for i = 3, N - 2 { A[i] = f(A[i - 1]) }
        A[1] = A[N]
        """
    )
    point = embed_after(
        collect_loop_accesses(p.body[0], params),
        collect_stmt_accesses(p.body[1], params),
        ASSUME,
    )
    assert point.ok
    assert point.at is None  # no constraints at all


def test_embed_after_flow_dependence_at_param_boundary():
    # the statement reads A[N-2], produced by the loop's last iteration
    p, params = parts(
        """
        program t
        param N
        real A[N], B[N]
        for i = 3, N - 2 { A[i] = f(A[i - 1]) }
        B[1] = A[N - 2]
        """
    )
    point = embed_after(
        collect_loop_accesses(p.body[0], params),
        collect_stmt_accesses(p.body[1], params),
        ASSUME,
    )
    assert point.ok
    assert point.at == Affine.var("N") - 2


def test_embed_before_upper_bound():
    # A[1] = A[N] must execute before the loop's read of A[1] at i = 3
    p, params = parts(
        """
        program t
        param N
        real A[N], B[N]
        A[1] = A[N]
        for i = 3, N { B[i] = g(A[i - 2]) }
        """
    )
    point = embed_before(
        collect_stmt_accesses(p.body[0], params),
        collect_loop_accesses(p.body[1], params),
        ASSUME,
    )
    assert point.ok
    assert point.at == Affine.constant(3)


def test_embed_before_write_write():
    # loop writes A[i]; the earlier statement writes A[4]: it must embed
    # no later than iteration 4
    p, params = parts(
        """
        program t
        param N
        real A[N]
        A[4] = 0.0
        for i = 2, N { A[i] = 1.0 }
        """
    )
    point = embed_before(
        collect_stmt_accesses(p.body[0], params),
        collect_loop_accesses(p.body[1], params),
        ASSUME,
    )
    assert point.ok
    assert point.at == Affine.constant(4)
