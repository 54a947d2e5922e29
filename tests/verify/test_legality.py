"""Pass-legality certification tests.

The positive direction: every pass of the real pipeline is certified on
every registry program.  The negative direction (the point of the
framework): deliberately broken transformations — a mis-aligned fusion,
a lost statement, reordered writes — are rejected with diagnostics that
name the violated dependence edge.
"""

import pytest

from repro.cli import main
from repro.core import compile_pipeline, compile_variant
from repro.core.pm import PASSES
from repro.core.fusion import fuse_program
from repro.lang import parse, validate
from repro.programs import registry
from repro.verify import (
    PassLegalityError,
    PassVerifier,
    check_legality,
    snapshot_program,
    verify_pass,
)
from repro.verify.diagnostics import MAX_PER_CODE

ALL_BENCHMARKS = sorted(set(registry.APPLICATIONS) | set(registry.STUDY_PROGRAMS))


def build(source: str):
    return validate(parse(source))


# -- the real pipeline is legal ----------------------------------------------


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_full_pipeline_certifies(name):
    program = registry.get(name).build()
    verifier = PassVerifier()
    compile_variant(program, "new", verify=verifier)
    passes = [pass_name for pass_name, _ in verifier.history]
    assert "fusion" in passes
    assert all(not bag.has_errors() for _, bag in verifier.history)


def test_verify_true_flag_smoke():
    program = registry.get("adi").build()
    variant = compile_variant(program, "fusion", verify=True)
    assert variant.level == "fusion"


@pytest.mark.parametrize("level", ["sgi", "mckinley"])
def test_baseline_compilers_certify(level):
    program = registry.get("tomcatv").build()
    compile_variant(program, level, verify=True)


# -- broken transformations are rejected --------------------------------------

ALIGN_ORIG = """
program align
param N
real A[N], B[N], C[N]

for i = 1, N {
  A[i] = f1(B[i])
}
for i = 1, (N - 1) {
  C[i] = f2(A[(i + 1)])
}
"""

# fusing the two loops needs alignment +1 (C reads A[i+1]); fusing at
# shift 0 moves the consumer ahead of its producer
ALIGN_BROKEN = """
program align
param N
real A[N], B[N], C[N]

for i = 1, N {
  A[i] = f1(B[i])
  when i in [1:(N - 1)] {
    C[i] = f2(A[(i + 1)])
  }
}
"""


def test_broken_alignment_rejected_naming_the_edge():
    bag = verify_pass(build(ALIGN_ORIG), build(ALIGN_BROKEN), pass_name="fuse")
    assert bag.has_errors()
    diag = bag.errors[0]
    assert diag.code == "L101"
    assert "flow dependence on A[2] violated" in diag.message
    # the diagnostic names the violated dependence edge completely:
    # kind, array element, producing statement instance, consuming one
    assert diag.details["kind"] == "flow"
    assert diag.details["element"] == "A[2]"
    assert "A[i] = f1(B[i])  @ i=2" in str(diag.details["source"])
    assert "C[i] = f2(A[(i + 1)])  @ i=1" in str(diag.details["sink"])
    assert diag.details["pass"] == "fuse"


def test_correct_alignment_certifies():
    # the legal fusion: shift the consumer by +1 and peel
    fused = """
    program align
    param N
    real A[N], B[N], C[N]

    for i = 1, N {
      A[i] = f1(B[i])
      when i in [2:N] {
        C[(i - 1)] = f2(A[i])
      }
    }
    """
    bag = verify_pass(build(ALIGN_ORIG), build(fused), pass_name="fuse")
    assert not bag.has_errors(), bag.render()


def test_lost_statement_rejected():
    after = """
    program align
    param N
    real A[N], B[N], C[N]

    for i = 1, N {
      A[i] = f1(B[i])
    }
    """
    bag = verify_pass(build(ALIGN_ORIG), build(after), pass_name="distribute")
    assert any(d.code == "L102" and "never after" in d.message for d in bag.errors)


def test_duplicated_writes_rejected():
    doubled = """
    program t
    param N
    real A[N]
    for i = 1, N { A[i] = 1.0 }
    for i = 1, N { A[i] = 1.0 }
    """
    single = """
    program t
    param N
    real A[N]
    for i = 1, N { A[i] = 1.0 }
    """
    bag = verify_pass(build(single), build(doubled), pass_name="unroll")
    assert any(d.code == "L103" and "duplicated" in d.message for d in bag.errors)


def test_reordered_writes_rejected_as_output_dependence():
    before = """
    program t
    param N
    real A[N]
    for i = 1, N { A[1] = f1(A[1]) }
    """
    # reversing a sequential accumulation reorders every write to A[1]
    after = """
    program t
    param N
    real A[N]
    for i = 1, N { A[1] = f1(A[1]) }
    """
    b = snapshot_program(build(before), {"N": 4})
    a = snapshot_program(build(after), {"N": 4})
    # simulate a reordering pass by reversing the observed chain
    a.writes[("A", (1,))] = list(reversed(a.writes[("A", (1,))]))
    bag = check_legality(b, a, pass_name="interchange")
    assert bag.has_errors()
    codes = {d.code for d in bag.errors}
    assert codes & {"L101", "L105"}, bag.render()


def test_diagnostics_are_capped():
    big_orig = ALIGN_ORIG
    big_broken = ALIGN_BROKEN
    bag = verify_pass(
        build(big_orig), build(big_broken), pass_name="fuse",
        params={"N": 40},
    )
    assert len(bag.errors) == MAX_PER_CODE
    assert any(d.code == "L000" for d in bag)


def test_mismatched_params_rejected():
    p = build(ALIGN_ORIG)
    b = snapshot_program(p, {"N": 4})
    a = snapshot_program(p, {"N": 5})
    bag = check_legality(b, a)
    assert any(d.code == "L100" for d in bag.errors)


# -- strict vs relaxed --------------------------------------------------------


#: a pair that differs only in scalar reads: constant propagation
SCALAR_BEFORE = """
program t
param N
real A[N]
scalar c
c = 2.0
for i = 1, N { A[i] = f(A[i], c) }
"""
SCALAR_AFTER = SCALAR_BEFORE.replace("f(A[i], c)", "f(A[i], 2.0)")


def test_constprop_needs_relaxed_mode():
    # strict mode flags the changed reads; the pass table knows constprop
    # legitimately rewrites arithmetic and relaxes the check
    before, after = build(SCALAR_BEFORE), build(SCALAR_AFTER)
    strict = verify_pass(before, after, pass_name="other")
    assert strict.has_errors()
    assert PASSES["constprop"].strict is False
    relaxed = verify_pass(before, after, pass_name="constprop", strict=False)
    assert not relaxed.has_errors(), relaxed.render()


@pytest.mark.parametrize(
    "name",
    sorted(PASSES) + ["transform", "simplify_program", "propagate_scalar_constants"],
)
def test_verify_pass_cli_certifies_each_pass_in_its_table_mode(name, tmp_path):
    """``--pass-name`` reads the pass table: a relaxed pass accepts the
    scalar-only rewrite, a strict one (and any name outside the table)
    rejects it."""
    (tmp_path / "b.loop").write_text(SCALAR_BEFORE)
    (tmp_path / "a.loop").write_text(SCALAR_AFTER)
    code = main([
        "verify-pass", "--before", str(tmp_path / "b.loop"),
        "--after", str(tmp_path / "a.loop"), "--pass-name", name,
    ])
    assert code == (1 if name not in PASSES or PASSES[name].strict else 0)


def test_relaxed_mode_still_catches_array_violations():
    bag = verify_pass(
        build(ALIGN_ORIG), build(ALIGN_BROKEN), pass_name="simplify", strict=False
    )
    assert bag.has_errors()


# -- PassVerifier -------------------------------------------------------------


def test_pass_verifier_blames_the_breaking_pass(monkeypatch):
    def drop_statements(program, ctx):
        # a pass that lost every top-level statement but the first
        return program.with_body(program.body[:1])

    monkeypatch.setitem(
        PASSES, "distribute", PASSES["distribute"]._replace(fn=drop_statements)
    )
    program = registry.get("adi").build()
    verifier = PassVerifier()
    with pytest.raises(PassLegalityError) as exc:
        compile_pipeline(program, ["inline", "constprop", "distribute"], verify=verifier)
    assert "pass 'distribute'" in str(exc.value)
    assert exc.value.bag.has_errors()
    assert [name for name, _ in verifier.history] == ["inline", "constprop", "distribute"]
    assert not any(bag.has_errors() for _, bag in verifier.history[:-1])


def test_pass_verifier_rebaselines_after_success():
    program = build(ALIGN_ORIG)
    verifier = PassVerifier()
    compile_pipeline(program, ["constprop", "simplify"], verify=verifier)
    assert [name for name, _ in verifier.history] == ["constprop", "simplify"]
    assert not any(bag.has_errors() for _, bag in verifier.history)


def test_fuse_program_output_certifies_on_fig4():
    # the paper's running example: fuse and verify the real fusion pass
    program = build(ALIGN_ORIG)
    fused, report = fuse_program(program, max_levels=8)
    bag = verify_pass(program, fused, pass_name="fusion")
    assert not bag.has_errors(), bag.render()
