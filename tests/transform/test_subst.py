"""Substitution / renaming tests."""

from dataclasses import replace

import pytest

from repro.lang import (
    Affine,
    Const,
    Guard,
    IndexVar,
    Interval,
    Param,
    TransformError,
)
from repro.transform.subst import (
    FreshNames,
    bound_names,
    rename_bound,
    subst_stmt,
)

from conftest import assert_same_semantics, build


def body_of(src):
    return build(src).body


def test_subst_expr():
    (loop,) = body_of(
        "program t\nparam N\nreal A[N]\nfor i = 1, N { A[i] = f(A[i]) }"
    )
    stmt = loop.body[0]
    (out,) = subst_stmt(stmt, {"i": IndexVar("f") - 2})
    assert "f" in str(out)
    assert "i" not in {v for v in str(out).split() if v == "i"}


def test_subst_guard_variable_translates_intervals():
    (loop,) = body_of(
        """
        program t
        param N
        real A[N]
        for i = 1, N {
          when i in [2:N - 1] { A[i] = 0.0 }
        }
        """
    )
    guard = loop.body[0]
    (out,) = subst_stmt(guard, {"i": IndexVar("f") - 3})
    assert isinstance(out, Guard)
    assert out.index == "f"
    assert out.intervals[0].lower == Affine.constant(5)
    assert out.intervals[0].upper == Affine.var("N") + 2


def test_subst_guard_by_constant_rejected():
    (loop,) = body_of(
        """
        program t
        param N
        real A[N], B[N]
        for i = 1, N {
          when i in [N - 4 : N] { A[i] = 0.0 } else { B[i] = 0.0 }
        }
        """
    )
    # 5 >= N - 4 holds at N = 9 but not at N = 10: undecided
    with pytest.raises(TransformError, match="cannot decide"):
        subst_stmt(loop.body[0], {"i": Const(5)}, ["N"])
    # decided: a point takes the branch it lies in, on every interval
    n = Affine.var("N")
    intervals = (Interval.point(Affine.constant(2)), Interval(n - 1, n))
    guard = Guard("i", intervals, loop.body[0].body, loop.body[0].else_body)
    then, orelse = guard.body, guard.else_body
    assert subst_stmt(guard, {"i": Const(2)}) == subst_stmt(then[0], {"i": Const(2)})
    assert subst_stmt(guard, {"i": Const(3)}, ["N"]) == subst_stmt(
        orelse[0], {"i": Const(3)}
    )
    at_n = {"i": Param("N") - 1}
    assert subst_stmt(guard, at_n, ["N"]) == subst_stmt(then[0], at_n)
    # without an else branch, a point outside leaves nothing
    assert subst_stmt(replace(guard, else_body=()), {"i": Const(1)}, ["N"]) == ()


#: programs whose compilation binds a guard's index to a point: inlining
#: a call with a constant argument, unrolling the loop the guard tests,
#: and a width-1 segment that fusion cuts out of a guarded loop
POINT_GUARDS = {
    "inline": """
        program inlined
        param N
        real A[N], B[N], C[N]
        proc p(k) {
          for i = 1, N {
            when k in [2 : 3] { A[i] = f(B[i]) } else { C[i] = g(B[i]) }
          }
        }
        call p(1)
        call p(2)
        """,
    "unroll": """
        program unrolled
        param N
        real A[N, 3], B[N, 3], C[N, 3]
        for k = 1, 3 {
          for i = 1, N {
            when k in [2 : 3] { A[i, k] = f(B[i, k]) } else { C[i, k] = g(B[i, k]) }
          }
        }
        """,
    "segment": """
        program segmented
        param N
        real A[N], B[N], C[N], D[N]
        for i = 3, N {
          when i in [3 : N] { A[i] = f(B[i]) }
        }
        C[2] = g(A[3])
        for i = 3, N { D[i] = h(A[i], C[2]) }
        """,
}


@pytest.mark.parametrize(
    "name, level",
    [("inline", "noopt"), ("unroll", "fusion"), ("unroll", "new"), ("segment", "fusion")],
)
def test_guard_on_a_point_compiles(name, level):
    from repro.core import compile_variant

    program = build(POINT_GUARDS[name])
    variant = compile_variant(program, level, verify=True).program
    assert_same_semantics(program, variant)


def test_subst_rebinding_rejected():
    (outer,) = body_of(
        """
        program t
        param N
        real A[N, N]
        for i = 1, N {
          for j = 1, N { A[j, i] = 0.0 }
        }
        """
    )
    with pytest.raises(TransformError, match="re-bound"):
        subst_stmt(outer, {"i": IndexVar("x")})


def test_bound_names():
    body = body_of(
        """
        program t
        param N
        real A[N, N]
        for i = 1, N { for j = 1, N { A[j, i] = 0.0 } }
        """
    )
    assert bound_names(body) == {"i", "j"}


def test_rename_bound_avoids_collision():
    (outer,) = body_of(
        """
        program t
        param N
        real A[N, N]
        for k = 1, N {
          for i = 1, N { A[i, k] = f(A[i, k]) }
        }
        """
    )
    fresh = FreshNames({"N", "i", "k"})
    renamed = rename_bound(outer.body[0], {"i"}, fresh)
    assert renamed.index != "i"
    assert renamed.index in str(renamed.body[0])


def test_fresh_names_never_collide():
    fresh = FreshNames({"f1", "f2"})
    assert fresh.fresh("f") == "f3"
    assert fresh.fresh("f") == "f4"
