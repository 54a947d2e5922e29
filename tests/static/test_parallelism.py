"""The static parallelism analyzer: verdicts, witnesses, lints.

Covers the acceptance contract of the analyzer itself:

* every loop axis of every golden (program, level) variant gets a
  definitive verdict (never ``unknown``), and every serial verdict
  carries either a concrete witness pair or a stated reason;
* the fig-10 verdict counts and race witnesses for adi / swim / tomcatv
  are pinned at both ``noopt`` and ``fusion``;
* reductions are recognized (and reported via R503);
* ``doall_preservation_check`` reports R510 when a fusion-shaped
  rewrite turns a DOALL axis serial.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))

from golden_pipelines import (  # noqa: E402
    GOLDEN_LEVELS,
    build_golden_program,
    reset_fusion_uids,
)

from repro.core import compile_variant
from repro.lang import Loop, parse, validate
from repro.static import analyze_parallelism
from repro.verify import doall_preservation_check, lint_races

#: sizes small enough for the exhaustive tier everywhere it is needed
SMALL_PARAMS = {
    "adi": {"N": 8},
    "fft": {},
    "sp": {"N": 7},
    "sweep3d": {"N": 6},
    "swim": {"N": 8},
    "tomcatv": {"N": 8},
}


def build(source: str):
    return validate(parse(source))


def count_loops(stmts) -> int:
    total = 0
    for stmt in stmts:
        body = getattr(stmt, "body", ())
        else_body = getattr(stmt, "else_body", ())
        if isinstance(stmt, Loop):
            total += 1
        total += count_loops(tuple(body) + tuple(else_body))
    return total


# -- full-matrix coverage -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_every_axis_of_every_level_gets_a_verdict(name):
    params = SMALL_PARAMS[name]
    for level in GOLDEN_LEVELS:
        program = build_golden_program(name)
        reset_fusion_uids()
        variant = compile_variant(program, level)
        profile = analyze_parallelism(variant.program, params)
        assert len(profile.verdicts) == count_loops(variant.program.body), (
            f"{name}/{level}: some loop axis got no verdict"
        )
        for v in profile.verdicts:
            assert v.verdict in ("doall", "reduction", "serial"), (
                f"{name}/{level}: axis {v.index!r} is {v.verdict!r}"
            )
            if v.verdict == "serial":
                assert v.witness is not None or v.reason, (
                    f"{name}/{level}: serial axis {v.index!r} has no evidence"
                )


def assert_witness_well_formed(v):
    w = v.witness
    assert w is not None
    assert w.iter_a != w.iter_b
    assert w.write_a or w.write_b
    assert w.axis == v.index
    assert dict(w.env_a).get(w.axis) == w.iter_a
    assert dict(w.env_b).get(w.axis) == w.iter_b


# -- pinned fig-10 verdicts and witnesses -------------------------------------


def test_adi_noopt_verdicts_pinned():
    profile = analyze_parallelism(build_golden_program("adi"), {"N": 11})
    assert profile.counts() == {
        "doall": 6, "reduction": 0, "serial": 4, "unknown": 0,
    }
    serial = {
        (v.nest, ".".join(v.path), v.witness.array) for v in profile.races
    }
    # the four inner sweeps carry the tridiagonal recurrence on X
    assert serial == {
        (2, "i.j", "X"), (3, "i.j", "X"), (4, "j.i", "X"), (5, "j.i", "X"),
    }
    for v in profile.races:
        assert_witness_well_formed(v)
        assert abs(v.witness.iter_a - v.witness.iter_b) == 1, (
            "adi's recurrences are distance-1"
        )
    # every outer axis is parallel: one per top-level nest
    assert profile.parallel_nests() == (0, 1, 2, 3, 4, 5)


def test_swim_noopt_all_doall():
    profile = analyze_parallelism(build_golden_program("swim"), {"N": 11})
    assert profile.counts() == {
        "doall": 12, "reduction": 0, "serial": 0, "unknown": 0,
    }
    assert profile.races == ()


def test_tomcatv_noopt_verdicts_pinned():
    profile = analyze_parallelism(build_golden_program("tomcatv"), {"N": 11})
    counts = profile.counts()
    assert counts["serial"] == 2 and counts["unknown"] == 0
    serial = {
        (v.nest, ".".join(v.path), v.witness.array) for v in profile.races
    }
    assert serial == {(2, "i.j", "D"), (3, "i.j", "RX")}
    for v in profile.races:
        assert_witness_well_formed(v)


def fused_variant(name, params):
    program = build_golden_program(name)
    reset_fusion_uids()
    return compile_variant(program, "fusion").program


def test_adi_fusion_loses_parallel_outer_axes():
    before = build_golden_program("adi")
    after = fused_variant("adi", {"N": 11})
    p_before = analyze_parallelism(before, {"N": 11})
    p_after = analyze_parallelism(after, {"N": 11})
    assert len(p_before.parallel_nests()) == 6
    assert len(p_after.parallel_nests()) == 1
    # the newly-serial outer axes carry concrete witnesses
    for v in p_after.races:
        if v.depth == 0:
            assert_witness_well_formed(v)


def test_swim_fusion_preserves_parallel_outer_axes():
    before = build_golden_program("swim")
    after = fused_variant("swim", {"N": 11})
    p_before = analyze_parallelism(before, {"N": 11})
    p_after = analyze_parallelism(after, {"N": 11})
    # swim's stencils fuse without serializing: the parallel-nest count
    # grows (peeled boundary rows become their own parallel nests), so
    # the preservation check stays clean
    assert len(p_after.parallel_nests()) >= len(p_before.parallel_nests())
    bag = doall_preservation_check(before, after, "fuse-swim", {"N": 11})
    assert [d for d in bag if d.code == "R510"] == []


# -- reductions ---------------------------------------------------------------


def test_scalar_accumulation_is_a_reduction():
    program = build(
        """
        program red
        param N
        real A[N]
        scalar S
        for i = 1, N { S = S + A[i] }
        """
    )
    profile = analyze_parallelism(program, {"N": 10})
    (v,) = profile.verdicts
    assert v.verdict == "reduction"
    assert v.reduction_targets == ("S",)
    assert v.parallel


def test_scalar_overwrite_is_a_race_not_a_reduction():
    program = build(
        """
        program scl
        param N
        real A[N]
        scalar S
        for i = 1, N { S = f(A[i]) }
        """
    )
    profile = analyze_parallelism(program, {"N": 10})
    (v,) = profile.verdicts
    assert v.verdict == "serial"


def test_array_accumulation_is_a_reduction():
    program = build(
        """
        program ared
        param N
        real A[N], H[N]
        for i = 1, N { H[1] = H[1] + f(A[i]) }
        """
    )
    profile = analyze_parallelism(program, {"N": 10})
    (v,) = profile.verdicts
    assert v.verdict == "reduction"
    assert v.reduction_targets == ("H[1]",)


# -- R5xx lint surface --------------------------------------------------------


def test_lint_races_reports_adi_recurrences():
    bag = lint_races(build_golden_program("adi"), {"N": 11})
    r501 = [d for d in bag if d.code == "R501"]
    assert len(r501) == 4
    for d in r501:
        assert "serial" in d.message and "X[" in d.message


def test_lint_races_reports_reduction_info():
    program = build(
        """
        program red
        param N
        real A[N]
        scalar S
        for i = 1, N { S = S + A[i] }
        """
    )
    bag = lint_races(program, {"N": 10})
    r503 = [d for d in bag if d.code == "R503"]
    assert len(r503) == 1
    assert "S" in r503[0].message
    assert not bag.has_errors()


def test_lint_races_scalar_race_uses_r502():
    program = build(
        """
        program scl
        param N
        real A[N]
        scalar S
        for i = 1, N { S = f(A[i]) }
        """
    )
    bag = lint_races(program, {"N": 10})
    assert [d.code for d in bag if d.code.startswith("R5")] == ["R502"]


# -- R510: passes that destroy DOALL axes -------------------------------------


#: the DESIGN worked example: two DOALL nests whose fusion is serial
FUSABLE_BUT_SERIAL_BEFORE = """
program ex
param N
real A[N], B[N], C[N]
for i = 2, N { A[i] = f(B[i]) }
for i = 2, N { C[i] = g(A[i - 1]) }
"""

FUSABLE_BUT_SERIAL_AFTER = """
program ex
param N
real A[N], B[N], C[N]
for i = 2, N {
  A[i] = f(B[i])
  C[i] = g(A[i - 1])
}
"""


def test_doall_preservation_reports_r510():
    before = build(FUSABLE_BUT_SERIAL_BEFORE)
    after = build(FUSABLE_BUT_SERIAL_AFTER)
    assert len(analyze_parallelism(before, {"N": 9}).parallel_nests()) == 2
    assert analyze_parallelism(after, {"N": 9}).parallel_nests() == ()
    bag = doall_preservation_check(before, after, "fuse", {"N": 9})
    r510 = [d for d in bag if d.code == "R510"]
    assert len(r510) == 1
    assert "fuse" in r510[0].message
    assert "now serial" in r510[0].message


def test_doall_preservation_clean_when_axes_survive():
    before = build(FUSABLE_BUT_SERIAL_BEFORE)
    bag = doall_preservation_check(before, before, "noop", {"N": 9})
    assert [d for d in bag if d.code == "R510"] == []


def test_adi_fusion_fires_r510_with_witnesses():
    before = build_golden_program("adi")
    after = fused_variant("adi", {"N": 11})
    bag = doall_preservation_check(before, after, "fuse-adi", {"N": 11})
    r510 = [d for d in bag if d.code == "R510"]
    assert r510, "adi fusion serializes outer axes and must be reported"
    assert any("of 6 parallel outer axes" in d.message for d in r510)
