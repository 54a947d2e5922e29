"""Access collection (footprint) tests."""

from repro.analysis import (
    SCALAR_PREFIX,
    collect_loop_accesses,
    collect_stmt_accesses,
    shares_data,
)
from repro.analysis.classify import DimKind
from repro.lang import Affine, Walk, array_reads, assignments_in

from conftest import GUARD_SHAPES, build, guard_source


def test_loop_access_classification():
    p = build(
        """
        program t
        param N
        real A[N, N], B[N]
        for i = 2, N - 1 {
          B[i] = f(A[1, i], B[i - 1])
          for j = 1, N { A[j, i] = g(A[j, i + 1]) }
        }
        """
    )
    acc = collect_loop_accesses(p.body[0], p.params)
    by_text = {a.text: a for a in acc if not a.array.startswith(SCALAR_PREFIX)}
    # B[i]: variant offset 0
    w = by_text["B[i]"]
    assert w.is_write and w.dims[0].kind is DimKind.VARIANT
    # A[1, i]: invariant dim 1, variant dim 2
    r = by_text["A[1, i]"]
    assert r.dims[0].kind is DimKind.INVARIANT
    assert r.dims[1].kind is DimKind.VARIANT
    # A[j, i]: inner dim 1
    aw = by_text["A[j, i]"]
    assert aw.dims[0].kind is DimKind.INNER
    # active ranges come from the loop bounds
    assert w.active_lo == Affine.constant(2)
    assert w.active_hi == Affine.var("N") - 1


def test_guard_narrows_active_range():
    p = build(
        """
        program t
        param N
        real A[N]
        for i = 1, N {
          when i in [2:N - 1] { A[i] = 0.0 }
        }
        """
    )
    acc = collect_loop_accesses(p.body[0], p.params)
    w = next(a for a in acc if a.is_write)
    assert w.active_lo == Affine.constant(2)
    assert w.active_hi == Affine.var("N") - 1

    # on every loop/guard shape, each active range holds the frame values
    # its statement executes at and stays within the loop's
    class Frames(Walk):
        def assign(self, stmt):
            self.seen.setdefault(id(stmt), []).append(self.env["i"])

    for shape in GUARD_SHAPES:
        p = build(guard_source(*shape))
        (loop,) = p.body
        acc = collect_loop_accesses(loop, p.params)
        owners = [
            s for s in assignments_in(loop.body)
            for _ in range(len(array_reads(s.expr)) + 1)
        ]
        assert len(owners) == len(acc)
        for n in (8, 11):
            env = {"N": n}
            walk = Frames(p, env)
            walk.seen = {}
            walk.run()
            lo, hi = (b.evaluate(env) for b in loop.bounds_affine())
            for a, stmt in zip(acc, owners):
                a_lo, a_hi = a.active_lo.evaluate(env), a.active_hi.evaluate(env)
                assert lo <= a_lo and a_hi <= hi, (shape, n, a.text)
                executed = walk.seen.get(id(stmt), [])
                assert all(a_lo <= i <= a_hi for i in executed), (shape, n, a.text)


def test_stmt_accesses_are_frame_free():
    p = build(
        """
        program t
        param N
        real A[N]
        A[1] = A[N]
        """
    )
    acc = collect_stmt_accesses(p.body[0], p.params)
    kinds = {(a.is_write, str(a.dims[0].value)) for a in acc}
    assert (True, "1") in kinds
    assert (False, "N") in kinds


def test_scalars_are_pseudo_arrays():
    p = build(
        """
        program t
        param N
        real A[N]
        scalar t
        for i = 1, N { t = f(A[i], t) }
        """
    )
    acc = collect_loop_accesses(p.body[0], p.params)
    scalar_accs = [a for a in acc if a.array.startswith(SCALAR_PREFIX)]
    assert any(a.is_write for a in scalar_accs)
    assert any(not a.is_write for a in scalar_accs)


def test_shares_data():
    p = build(
        """
        program t
        param N
        real A[N], B[N], C[N]
        for i = 1, N { A[i] = f(B[i]) }
        for i = 1, N { C[i] = g(B[i]) }
        for i = 1, N { C[i] = g(C[i]) }
        """
    )
    l1, l2, l3 = p.body
    a1 = collect_loop_accesses(l1, p.params)
    a2 = collect_loop_accesses(l2, p.params)
    a3 = collect_loop_accesses(l3, p.params)
    assert shares_data(a1, a2)  # common array B (read-read counts)
    assert not shares_data(a1, a3)
    assert shares_data(a2, a3)


def test_shifted_translates_offsets_and_ranges():
    p = build(
        """
        program t
        param N
        real A[N]
        for i = 2, N { A[i] = f(A[i - 1]) }
        """
    )
    acc = collect_loop_accesses(p.body[0], p.params)
    shifted = [a.shifted(Affine.constant(3)) for a in acc]
    w = next(a for a in shifted if a.is_write)
    assert w.dims[0].value == Affine.constant(-3)
    assert w.active_lo == Affine.constant(5)
    assert w.active_hi == Affine.var("N") + 3
