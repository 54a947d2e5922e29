"""IR verifier (lint) tests: bounds, sanity, def-use, registry cleanliness."""

import pytest

from repro.lang import parse, validate
from repro.programs import registry
from repro.verify import lint_program

from conftest import ENCLOSING_GUARD, GUARD_SHAPES, guard_source

ALL_BENCHMARKS = sorted(set(registry.APPLICATIONS) | set(registry.STUDY_PROGRAMS))


def lint(source: str, assume=None):
    return lint_program(parse(source), assume=assume)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_registry_programs_lint_clean(name):
    bag = lint_program(validate(registry.get(name).build()))
    assert not bag.has_errors(), bag.render()
    assert not bag.warnings, bag.render()


def test_subscript_overflow_detected():
    bag = lint(
        """
        program t
        param N
        real A[N]
        for i = 1, N { A[i] = A[(i + 1)] }
        """
    )
    (err,) = bag.errors
    assert err.code == "V102"
    assert "can reach N + 1 > extent N" in err.message
    assert err.stmt == "A[i] = A[(i + 1)]"


def test_subscript_underflow_detected():
    bag = lint(
        """
        program t
        param N
        real A[N]
        for i = 1, N { A[i] = A[(i - 1)] }
        """
    )
    (err,) = bag.errors
    assert err.code == "V101"
    assert "underflow" in err.message


def test_guard_narrows_subscript_range():
    # without the guard, A[i-1] would underflow at i=1; the guard makes
    # the reference provably safe, so lint must stay quiet
    bag = lint(
        """
        program t
        param N
        real A[N]
        for i = 1, N {
          when i in [2:N] { A[i] = A[(i - 1)] }
        }
        """
    )
    assert not bag.has_errors(), bag.render()


def _guard_cases():
    """Loop/guard programs whose guarded statement stays in bounds: two
    hand-written ones, then every generated shape whose stencil's ``i``
    stays in ``[2, N - 1]``."""
    cases = [
        # the guard's upper bound is looser than the loop's: i + 1 <= N
        pytest.param(guard_source(0, 1, 0, 0, False, "A[i + 1] = f(B[i])"),
                     id="1, N - 1-[1 : N]-A[i + 1] = f(B[i])"),
        # the guard's lower bound is looser than the loop's: i - 1 >= 1
        pytest.param(guard_source(1, 0, 0, 0, False, "A[i - 1] = f(B[i])"),
                     id="2, N-[1 : N]-A[i - 1] = f(B[i])"),
        # the guard's lower bound is looser for every value of k
        pytest.param(ENCLOSING_GUARD, id="k - 5 : N-over k in [1 : 3]"),
    ]
    for a, b, c, d, orelse in GUARD_SHAPES:
        if max(a, c) >= 1 and max(b, d) >= 1:
            source = guard_source(a, b, c, d, orelse, "A[i] = f(B[i - 1], B[i + 1])")
            cases.append(pytest.param(source, id=f"{a}{b}{c}{d}{'-else' * orelse}"))
    return cases


@pytest.mark.parametrize("source", _guard_cases())
def test_guard_intersects_loop_range(source):
    """A guard narrows the index range to its intersection with the
    loop's, never widens it past what the loop executes."""
    from repro.interp import run_program

    for n in (8, 11):
        run_program(validate(parse(source)), {"N": n})  # in bounds
    bag = lint(source)
    assert not bag.has_errors(), bag.render()


def test_triangular_loop_bounds_resolved():
    bag = lint(
        """
        program t
        param N
        real A[N]
        for i = 1, N {
          for j = i, N { A[j] = 0.0 }
        }
        """
    )
    assert not bag.has_errors(), bag.render()


def test_never_executing_loop_warned():
    bag = lint(
        """
        program t
        param N
        real A[N]
        for i = (N + 2), N { A[1] = 0.0 }
        """
    )
    assert any(d.code == "V104" for d in bag.warnings), bag.render()


def test_empty_guard_interval_warned():
    bag = lint(
        """
        program t
        param N
        real A[N]
        for i = 1, N {
          when i in [(N + 1):N] { A[i] = 0.0 }
        }
        """
    )
    codes = {d.code for d in bag.warnings}
    assert "V105" in codes, bag.render()


def test_unassigned_scalar_read_warned():
    bag = lint(
        """
        program t
        param N
        real A[N]
        scalar s
        for i = 1, N { A[i] = s }
        """
    )
    assert any(d.code == "V201" for d in bag.warnings), bag.render()


def test_dead_scalar_write_warned():
    bag = lint(
        """
        program t
        param N
        real A[N]
        scalar s
        s = 1.0
        for i = 1, N { A[i] = 0.0 }
        """
    )
    assert any(d.code == "V202" for d in bag.warnings), bag.render()


def test_unreferenced_array_warned():
    bag = lint(
        """
        program t
        param N
        real A[N], Z[N]
        for i = 1, N { A[i] = 0.0 }
        """
    )
    warn = next(d for d in bag.warnings if d.code == "V203")
    assert "'Z'" in warn.message


def test_read_only_array_reported_as_info():
    bag = lint(
        """
        program t
        param N
        real A[N], B[N]
        for i = 1, N { A[i] = B[i] }
        """
    )
    assert any(d.code == "V204" and "'B'" in d.message for d in bag)
    assert not bag.has_errors()


def test_structural_errors_short_circuit_deeper_layers():
    # undeclared array (only constructible via the AST — the parser
    # rejects it at parse time): lint reports V001 and must not crash on
    # the bounds/def-use layers (which assume declared names)
    from repro.lang import ArrayDecl, ArrayRef, Assign, Const, Loop, Param, Program

    body = (
        Loop(
            "i",
            Const(1),
            Param("N"),
            (
                Assign(
                    ArrayRef("A", (Const(1),)),
                    ArrayRef("Z", (Const(1),)),
                ),
            ),
        ),
    )
    program = Program(
        "t", ("N",), (ArrayDecl("A", (Param("N"),)),), body
    )
    bag = lint_program(program)
    assert bag.has_errors()
    assert all(d.code == "V001" for d in bag.errors)


def test_assume_controls_symbolic_comparison():
    # at N >= 8 the read A[N - 6] is safe; an assumption of N >= 1 cannot
    # prove it but conservatively stays quiet; the *underflow* is only
    # provable when the range is entirely below 1
    src = """
    program t
    param N
    real A[N]
    A[(0 - 2)] = 1.0
    """
    bag = lint(src)
    (err,) = bag.errors
    assert err.code == "V101"
    assert "always" in err.message


def test_scalar_only_program_lints():
    bag = lint(
        """
        program t
        param N
        real A[N]
        scalar s
        s = 1.0
        for i = 1, N { A[i] = s }
        """
    )
    assert not bag.has_errors()
    assert not bag.warnings
