"""Preliminary transformation tests (§4.1)."""

from dataclasses import replace

import pytest

from repro.lang import TransformError, ValidationError, parse
from repro.transform import (
    distribute_loops,
    inline_procedures,
    propagate_scalar_constants,
    simplify_program,
    split_arrays,
    unroll_small_loops,
)

from conftest import assert_same_semantics, build


class TestInline:
    def test_inline_expands_calls(self):
        p = build(
            """
            program t
            param N
            real A[N]
            proc fill(k) { A[k] = 1.0 }
            call fill(1)
            call fill(N)
            """
        )
        q = inline_procedures(p)
        assert not q.procedures
        assert len(q.body) == 2
        assert_same_semantics(p, q)

    def test_nested_procedures(self):
        p = build(
            """
            program t
            param N
            real A[N]
            proc one(k) { A[k] = 1.0 }
            proc both(k) {
              call one(k)
              call one(k + 1)
            }
            call both(2)
            """
        )
        q = inline_procedures(p)
        assert len(q.body) == 2
        assert_same_semantics(p, q)

    def test_loop_in_procedure(self):
        p = build(
            """
            program t
            param N
            real A[N, N]
            proc row(r) {
              for j = 1, N { A[j, r] = f(A[j, r]) }
            }
            for i = 1, N { A[1, i] = 0.0 }
            call row(1)
            call row(N)
            """
        )
        q = inline_procedures(p)
        assert_same_semantics(p, q)

    def test_recursion_detected(self):
        p = parse(
            """
            program t
            param N
            real A[N]
            proc a(k) { call a(k) }
            call a(1)
            """
        )
        with pytest.raises(TransformError, match="depth"):
            inline_procedures(p)


class TestUnroll:
    def test_unrolls_small_constant_loops(self):
        p = build(
            """
            program t
            param N
            real A[3, N]
            for c = 1, 3 {
              for i = 1, N { A[c, i] = f(A[c, i]) }
            }
            """
        )
        q = unroll_small_loops(p, max_trip=3)
        assert_same_semantics(p, q)
        assert q.loop_nest_count() == 3  # three copies of the inner loop

    def test_keeps_large_and_symbolic_loops(self):
        p = build(
            """
            program t
            param N
            real A[N]
            for i = 1, N { A[i] = 0.0 }
            """
        )
        assert unroll_small_loops(p, max_trip=5) == p


class TestSplitArrays:
    def test_split_and_provenance(self):
        p = build(
            """
            program t
            param N
            real U[2, N]
            for i = 1, N {
              U[1, i] = f(U[1, i])
              U[2, i] = g(U[2, i], U[1, i])
            }
            """
        )
        q = split_arrays(p)
        assert set(q.array_names()) == {"U_1", "U_2"}
        assert_same_semantics(p, q)

    def test_variable_subscript_blocks_split(self):
        p = build(
            """
            program t
            param N
            real U[2, N]
            for c = 1, 2 {
              for i = 1, N { U[c, i] = f(U[c, i]) }
            }
            """
        )
        assert split_arrays(p) == p  # c is not constant (not unrolled)
        q = split_arrays(unroll_small_loops(p, 2))
        assert set(q.array_names()) == {"U_1", "U_2"}
        assert_same_semantics(p, q)

    def test_double_split(self):
        p = build(
            """
            program t
            param N
            real U[2, 2, N]
            for i = 1, N {
              U[1, 1, i] = f(U[2, 2, i])
              U[2, 1, i] = g(U[1, 2, i])
            }
            """
        )
        q = split_arrays(p)
        assert q.array_count() == 4
        assert_same_semantics(p, q)


class TestDistribute:
    def test_independent_statements_scatter(self):
        p = build(
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
        q = distribute_loops(p)
        assert q.loop_nest_count() == 2
        assert_same_semantics(p, q)

    def test_recurrence_scc_stays_together(self):
        p = build(
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
        q = distribute_loops(p)
        assert q.loop_nest_count() == 1
        assert_same_semantics(p, q)

    def test_flow_dependence_splits_in_order(self):
        p = build(
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
        q = distribute_loops(p)
        assert q.loop_nest_count() == 2
        assert_same_semantics(p, q)

    def test_inner_loops_distributed(self):
        p = build(
            """
            program t
            param N
            real A[N, N], B[N, N]
            for i = 1, N {
              for j = 1, N {
                A[j, i] = 1.0
                B[j, i] = 2.0
              }
            }
            """
        )
        q = distribute_loops(p)
        assert q.loop_count() == 4
        assert_same_semantics(p, q)


class TestSimplify:
    def test_affine_canonicalization(self):
        p = build(
            """
            program t
            param N
            real A[N]
            for i = 2, N { A[(i + 1) - 1] = f(A[(i - 2) + 1]) }
            """
        )
        q = simplify_program(p)
        text = str(q.body[0].body[0])
        assert "A[i]" in text
        assert "(i - 1)" in text or "i - 1" in text
        assert_same_semantics(p, q)

    def test_zero_divisor_stays_unfolded(self):
        # validate rejects a literal ``/ 0`` in source; a pass or a builder
        # can still make one, and folding it must not raise from a pipeline
        from repro.core.pipeline import compile_pipeline
        from repro.lang import BinOp, Const

        p = build(
            """
            program t
            param N
            real A[N], B[N]
            for i = 1, N { A[i] = B[i] + 1.0 }
            """
        )
        (loop,) = p.body
        (stmt,) = loop.body
        for divisor in (Const(0), Const(2) - Const(2), Const(0.0)):
            quotient = BinOp("/", Const(1), divisor)
            bad = p.with_body(
                (replace(loop, body=(replace(stmt, expr=stmt.expr + quotient),)),)
            )
            q = simplify_program(bad)
            assert q.body[0].body[0].expr.right == BinOp("/", Const(1), Const(0))
            # the pipeline's exit validation names it instead of a traceback
            with pytest.raises(ValidationError, match="division by literal zero"):
                compile_pipeline(bad, "noopt")
        # a data-value quotient with a nonzero divisor still folds
        ok = replace(stmt, expr=BinOp("/", Const(1.5), Const(4)))
        q = simplify_program(p.with_body((replace(loop, body=(ok,)),)))
        assert q.body[0].body[0].expr == Const(0.375)

    def test_scalar_constant_propagation(self):
        p = build(
            """
            program t
            param N
            real A[N]
            scalar c
            c = 2.0
            for i = 1, N { A[i] = c * A[i] }
            """
        )
        q = propagate_scalar_constants(p)
        assert "c" not in str(q.body[-1].body[0].expr)
        assert_same_semantics(p, q)

    def test_no_propagation_when_reassigned(self):
        p = build(
            """
            program t
            param N
            real A[N]
            scalar c
            c = 2.0
            c = 3.0
            for i = 1, N { A[i] = c * A[i] }
            """
        )
        assert propagate_scalar_constants(p) == p
