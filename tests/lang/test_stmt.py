"""Statement-level AST utilities."""

import pytest

from repro.core import OPT_LEVELS
from repro.lang import (
    Affine,
    Assign,
    CallStmt,
    Const,
    Guard,
    IndexVar,
    Interval,
    Param,
    ScalarRef,
    ValidationError,
    loop_nest_depth,
    loops_in,
    map_body,
    map_exprs,
    parse,
)

import fences
from conftest import build


def test_interval_point():
    iv = Interval.point(Affine.constant(3))
    assert iv.lower == iv.upper
    assert str(iv) == "3"


def test_interval_range_str():
    iv = Interval(Affine.constant(2), Affine.var("N"))
    assert str(iv) == "2:N"


def test_guard_requires_intervals():
    from repro.lang import ArrayRef

    stmt = Assign(ArrayRef("A", (Const(1),)), Const(0.0))
    with pytest.raises(ValidationError):
        Guard("i", (), (stmt,))


def test_loop_nest_depth():
    p = build(
        """
        program t
        param N
        real A[N, N, N]
        for i = 1, N {
          A[1, 1, i] = 0.0
          for j = 1, N {
            for k = 1, N { A[k, j, i] = 1.0 }
          }
        }
        """
    )
    assert loop_nest_depth(p.body[0]) == 3


def test_loops_in_recurses_guards():
    p = build(
        """
        program t
        param N
        real A[N, N]
        for i = 1, N {
          when i in [2:N - 1] {
            for j = 1, N { A[j, i] = 0.0 }
          }
        }
        """
    )
    assert len(loops_in(p.body)) == 2


def test_map_body_drop_and_expand():
    p = build(
        """
        program t
        param N
        real A[N]
        A[1] = 0.0
        A[2] = 0.0
        """
    )
    s1, s2 = p.body
    out = map_body([s1, s2], lambda s: None if s is s1 else [s, s])
    assert out == (s2, s2)


def _rename(names):
    """A node rule renaming index variables, parameters and scalars."""

    def rule(e):
        if isinstance(e, (IndexVar, Param, ScalarRef)) and e.name in names:
            return type(e)(names[e.name])
        return e

    return rule


def test_map_exprs_maps_every_slot():
    p = parse(
        """
        program t
        param N
        real A[N]
        for i = N - 5, N {
          A[i + 1] = f(A[i], i)
          call fill(i)
        }
        """
    )
    (loop,) = p.body
    out = map_exprs(loop, _rename({"i": "j", "N": "M"}))
    assign, call = out.body
    assert (str(out.lower), str(out.upper)) == ("(M - 5)", "M")
    assert out.index == "i"  # a binder is a name, not an expression slot
    assert str(assign.target) == "A[(j + 1)]"
    assert str(assign.expr) == "f(A[j], j)"
    assert isinstance(call, CallStmt) and str(call) == "call fill(j)"


def test_map_exprs_keeps_scalar_targets_and_guard_intervals():
    p = parse(
        """
        program t
        param N
        real A[N]
        scalar s
        for i = 1, N {
          when i in [2:N - 1] { s = A[i] } else { A[i] = s }
        }
        """
    )
    guard = p.body[0].body[0]
    out = map_exprs(guard, _rename({"s": "t", "N": "M", "i": "j"}))
    assert (out.index, out.intervals) == (guard.index, guard.intervals)
    (write,), (read,) = out.body, out.else_body
    assert write.target == ScalarRef("s") and str(write.expr) == "A[j]"
    assert str(read) == "A[j] = t"


@pytest.mark.parametrize("name", ["adi", "fft", "sp", "sweep3d", "swim", "tomcatv"])
def test_identity_map_rebuilds_every_variant_equal(name):
    """The 42 program x level variants survive an identity rebuild."""
    for level in OPT_LEVELS:
        compiled = fences.compiled("fft16" if name == "fft" else name, level).program
        rebuilt = compiled.with_body(
            tuple(map_exprs(s, lambda e: e) for s in compiled.body)
        )
        assert rebuilt == compiled


def test_loop_with_body_replaces():
    p = build("program t\nparam N\nreal A[N]\nfor i = 1, N { A[i] = 0.0 }")
    loop = p.body[0]
    new = loop.with_body(loop.body + loop.body)
    assert len(new.body) == 2
    assert new.index == loop.index


def test_label_does_not_affect_equality():
    a = parse("program t\nparam N\nreal A[N]\nfor i = 1, N { A[i] = 0.0 }").body[0]
    from dataclasses import replace

    assert replace(a, label="x") == a
