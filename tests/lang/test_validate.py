"""Structural validation tests (failure injection)."""

import pytest

from repro.lang import (
    ArrayDecl,
    ArrayRef,
    Assign,
    Const,
    IndexVar,
    Loop,
    Param,
    Program,
    ScalarRef,
    ValidationError,
    ValidationIssue,
    parse,
    validate,
    validation_issues,
)


def _prog(body, arrays=(("A", 1),), params=("N",), scalars=()):
    decls = tuple(
        ArrayDecl(name, tuple(Param("N") for _ in range(nd))) for name, nd in arrays
    )
    return Program("t", tuple(params), decls, tuple(body), scalars=tuple(scalars))


def a_ref(*idx):
    return ArrayRef("A", tuple(idx))


def test_valid_program_passes():
    p = _prog([Loop("i", Const(1), Param("N"), (Assign(a_ref(IndexVar("i")), Const(0.0)),))])
    validate(p)


def test_index_out_of_scope():
    p = _prog([Assign(a_ref(IndexVar("i")), Const(0.0))])
    with pytest.raises(ValidationError, match="out of scope"):
        validate(p)


def test_shadowing_parameter():
    p = _prog([Loop("N", Const(1), Const(5), (Assign(a_ref(Const(1)), Const(0.0)),))])
    with pytest.raises(ValidationError, match="shadows a parameter"):
        validate(p)


def test_shadowing_outer_loop():
    inner = Loop("i", Const(1), Const(3), (Assign(a_ref(IndexVar("i")), Const(0.0)),))
    p = _prog([Loop("i", Const(1), Const(3), (inner,))])
    with pytest.raises(ValidationError, match="shadows an outer loop"):
        validate(p)


def test_wrong_subscript_count():
    p = _prog([Assign(ArrayRef("A", (Const(1), Const(2))), Const(0.0))])
    with pytest.raises(ValidationError, match="dims"):
        validate(p)


def test_undeclared_array():
    p = _prog([Assign(ArrayRef("Z", (Const(1),)), Const(0.0))])
    with pytest.raises(ValidationError, match="undeclared array"):
        validate(p)


def test_undeclared_scalar():
    p = _prog([Assign(ScalarRef("t"), Const(0.0))])
    with pytest.raises(ValidationError, match="undeclared scalar"):
        validate(p)


def test_duplicate_array_declaration():
    decls = (ArrayDecl("A", (Param("N"),)), ArrayDecl("A", (Param("N"),)))
    with pytest.raises(ValidationError, match="duplicate"):
        Program("t", ("N",), decls, ())


def test_call_arity_checked():
    p = parse(
        """
        program t
        param N
        real A[N]
        proc fill(k) { A[k] = 0.0 }
        call fill(1)
        """
    )
    validate(p)
    from repro.lang import CallStmt

    bad = p.with_body((CallStmt("fill", (Const(1), Const(2))),))
    with pytest.raises(ValidationError, match="takes 1 args"):
        validate(bad)


def test_nonaffine_subscript_rejected():
    src = """
    program t
    param N
    real A[N]
    for i = 1, N { A[i] = A[i] }
    """
    p = validate(parse(src))
    # build a non-affine subscript: A[i*i]
    i = IndexVar("i")
    bad_body = (Loop("i", Const(1), Param("N"), (Assign(a_ref(i * i), Const(0.0)),)),)
    with pytest.raises(ValidationError, match="not affine"):
        validate(p.with_body(bad_body))


def test_literal_zero_divisor_rejected():
    src = """
    program t
    param N
    real A[N], B[N]
    for i = 1, N { A[i] = B[i] + 1 / 0 }
    for i = 1, N { A[i / 0] = B[i] / 2 }
    """
    with pytest.raises(ValidationError, match="division by literal zero") as exc:
        validate(parse(src))
    first, second, *_ = exc.value.issues
    assert first.where == "body[0]/for i[0] rhs"
    assert "(1 / 0)" in first.message
    assert second.where.startswith("body[1]/for i[0]")
    # the verifier reports it under the structural code, like every issue
    from repro.verify import lint_program

    bag = lint_program(parse(src))
    assert {d.code for d in bag.errors} == {"V001"}
    assert any("division by literal zero" in d.message for d in bag.errors)


# -- collect-all behavior -----------------------------------------------------


def _many_problems() -> Program:
    """A program with four independent structural errors."""
    i = IndexVar("i")
    body = (
        Assign(ArrayRef("Z", (Const(1),)), Const(0.0)),  # undeclared array
        Assign(ScalarRef("t"), Const(0.0)),  # undeclared scalar
        Loop(
            "i",
            Const(1),
            Param("N"),
            (
                Assign(a_ref(i * i), Const(0.0)),  # non-affine subscript
                Assign(ArrayRef("A", (i, i)), Const(0.0)),  # wrong arity
            ),
        ),
    )
    return _prog(body)


def test_all_errors_collected_not_just_first():
    issues = validation_issues(_many_problems())
    messages = [issue.message for issue in issues]
    assert len(issues) == 4
    assert any("undeclared array 'Z'" in m for m in messages)
    assert any("undeclared scalar 't'" in m for m in messages)
    assert any("not affine" in m for m in messages)
    assert any("has 1 dims" in m for m in messages)


def test_issue_locations_are_path_like():
    issues = validation_issues(_many_problems())
    wheres = [issue.where for issue in issues]
    assert wheres[0].startswith("body[0]")
    assert any("/for i" in w for w in wheres)


def test_validation_error_carries_all_issues():
    with pytest.raises(ValidationError) as exc:
        validate(_many_problems())
    err = exc.value
    assert len(err.issues) == 4
    assert all(isinstance(issue, ValidationIssue) for issue in err.issues)
    # the message lists every problem, one per line
    assert "4 validation error(s)" in str(err)
    assert str(err).count("\n") == 4


def test_valid_program_has_no_issues():
    p = _prog(
        [Loop("i", Const(1), Param("N"), (Assign(a_ref(IndexVar("i")), Const(0.0)),))]
    )
    assert validation_issues(p) == []


def test_issue_equality_and_repr():
    a = ValidationIssue("body[0]", "boom")
    b = ValidationIssue("body[0]", "boom")
    assert a == b
    assert a != ValidationIssue("body[1]", "boom")
    assert str(a) == "body[0]: boom"
    assert "boom" in repr(a)


def test_undeclared_procedure_does_not_crash_arity_check():
    from repro.lang import CallStmt

    p = _prog([CallStmt("nosuch", (Const(1),))])
    issues = validation_issues(p)
    assert any("undeclared procedure" in issue.message for issue in issues)
