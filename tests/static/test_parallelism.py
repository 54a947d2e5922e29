"""The static parallelism analyzer: verdicts, witnesses, lints.

Covers the acceptance contract of the analyzer itself:

* every loop axis of every golden (program, level) variant gets a
  definitive, exact verdict (never ``unknown``, no exhausted search),
  every serial verdict carries a concrete witness pair, and every
  witness names two real iterations (every loop bound and guard around
  each reference holds) whose in-bounds accesses meet on one element;
* every variant's whole profile is pinned by digest in the fence
  table's ``parallelism`` kind (``tests/fences.py``; tier-1 sizes here,
  fig-10-scale sizes in a ``slow`` twin);
* the fig-10 verdict counts and race witnesses for adi / swim / tomcatv
  are pinned at both ``noopt`` and ``fusion``;
* reductions are recognized (and reported via R503);
* ``doall_preservation_check`` reports R510 when a fusion-shaped
  rewrite turns a DOALL axis serial.
"""

from __future__ import annotations

import pytest

from repro.lang import ArrayRef, Assign, Guard, Loop, ScalarRef
from repro.lang.scope import index_intervals
from repro.obs import metrics
from repro.static import analyze_parallelism
from repro.static import parallelism as parallelism_module
from repro.verify import doall_preservation_check, lint_races

import fences
from conftest import build

KIND = fences.KINDS["parallelism"]


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


def assignments_around(stmts, chain=()):
    """Every assignment under ``stmts`` with the loops and guards around
    it, outermost first: ``(statement, inside)``, ``inside`` False for an
    else branch."""
    for stmt in stmts:
        if isinstance(stmt, Assign):
            yield stmt, chain
        elif isinstance(stmt, Loop):
            yield from assignments_around(stmt.body, chain + ((stmt, True),))
        elif isinstance(stmt, Guard):
            yield from assignments_around(stmt.body, chain + ((stmt, True),))
            yield from assignments_around(stmt.else_body, chain + ((stmt, False),))


def references_of(program, v, text, env):
    """``(reference, chain)`` for each reference printed ``text`` of the
    assignments in ``v``'s nest under its axis that run under exactly the
    loops ``env`` binds."""
    for stmt, chain in assignments_around([program.body[v.nest]]):
        loops = [s.index for s, _ in chain if isinstance(s, Loop)]
        if loops[:len(v.path)] != list(v.path) or set(loops) != set(env):
            continue
        for ref in (*stmt.target.walk(), *stmt.expr.walk()):
            if isinstance(ref, (ArrayRef, ScalarRef)) and str(ref) == text:
                yield ref, chain


def runs_at(chain, at) -> bool:
    """Whether every loop bound and guard of ``chain`` holds at ``at``."""
    for stmt, inside in chain:
        hit = any(
            lo.evaluate(at) <= at[stmt.index] <= hi.evaluate(at)
            for lo, hi in index_intervals(stmt)
        )
        if hit != inside:
            return False
    return True


def assert_exact_witnesses_collide_in_bounds(program, profile, where):
    """Each exact witness side is an instance: an assignment of the
    axis's nest that holds the reference, runs under exactly the loops
    its environment binds, and whose every enclosing loop bound and guard
    holds there.  Its references, each at its own environment, name one
    in-bounds subscript tuple, and the two tuples are equal: the pair
    meets on a real element, not on a linearized alias."""
    params = dict(profile.params)
    shapes = {a.name: a.shape(params) for a in program.arrays}
    for v in profile.verdicts:
        w = v.witness
        if w is None or not w.exact:
            continue
        subs = []
        for text, env in ((w.ref_a, w.env_a), (w.ref_b, w.env_b)):
            at = {**params, **dict(env)}
            instances = list(references_of(program, v, text, dict(env)))
            assert any(runs_at(chain, at) for _, chain in instances), (
                f"{where}: witness {text} @{dict(env)} is not an iteration "
                f"of nest {v.nest} ({v.describe()})"
            )
            if w.array.startswith("$"):
                continue  # a scalar is one element, nothing to subscript
            sub = tuple(s.evaluate(at) for s in instances[0][0].index_affines())
            assert all(1 <= s <= e for s, e in zip(sub, shapes[w.array])), (
                f"{where}: witness {text} @{dict(env)} is {sub}, "
                f"outside {shapes[w.array]}"
            )
            subs.append(sub)
        assert len(set(subs)) <= 1, f"{where}: witness pair {subs} differ"


def inexact_count() -> int:
    return metrics.snapshot()["counters"].get("analysis.parallelism.inexact", 0)


def assert_every_level_matches_the_fences(name: str, tier: int) -> None:
    """Every level of ``name`` at its ``tier``-th parallelism size: a
    definitive, exact verdict per loop axis, a witness per serial one,
    witnesses that collide in bounds, and the fence table's digest."""
    inexact = inexact_count()
    for level in fences.LEVELS:
        program = fences.compiled(name, level).program
        sub = KIND.rows[name, level][tier]
        profile = analyze_parallelism(program, fences.at(sub))
        where = f"{name}/{level}@{sub}"
        assert len(profile.verdicts) == count_loops(program.body), (
            f"{where}: some loop axis got no verdict"
        )
        for v in profile.verdicts:
            assert v.verdict in ("doall", "reduction", "serial") and v.exact, (
                f"{where}: axis {v.index!r} is {v.verdict!r} ({v.reason})"
            )
            if v.verdict == "serial":
                assert v.witness is not None, (
                    f"{where}: serial axis {v.index!r} has no witness"
                )
        assert_exact_witnesses_collide_in_bounds(program, profile, where)
        assert fences.digest(profile.as_dict()) == fences.expected(
            "parallelism", name, level, sub
        ), f"{where}: profile differs from the fence table"
    assert inexact_count() == inexact, "analysis.parallelism.inexact moved"


@pytest.mark.parametrize("name", fences.AT_FFT16, ids=fences.name)
def test_every_axis_of_every_level_gets_a_verdict(name):
    assert_every_level_matches_the_fences(name, 0)


@pytest.mark.slow
@pytest.mark.parametrize("name", fences.AT_FFT16, ids=fences.name)
def test_profiles_match_golden_at_fig10_scale(name):
    assert_every_level_matches_the_fences(name, -1)


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
    profile = analyze_parallelism(fences.source("adi"), {"N": 11})
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
    profile = analyze_parallelism(fences.source("swim"), {"N": 11})
    assert profile.counts() == {
        "doall": 12, "reduction": 0, "serial": 0, "unknown": 0,
    }
    assert profile.races == ()


def test_tomcatv_noopt_verdicts_pinned():
    profile = analyze_parallelism(fences.source("tomcatv"), {"N": 11})
    counts = profile.counts()
    assert counts["serial"] == 2 and counts["unknown"] == 0
    serial = {
        (v.nest, ".".join(v.path), v.witness.array) for v in profile.races
    }
    assert serial == {(2, "i.j", "D"), (3, "i.j", "RX")}
    for v in profile.races:
        assert_witness_well_formed(v)


#: fusion's peeling leaves sibling loops that reuse an index name over
#: different ranges; the first ``j`` loop alone carries the race on X
SIBLINGS = """
program sib
param N
real X[N + 2]
real Z[N]
for i = 1, N {
  for j = 1, 1 { X[i + j] = X[i] }
  for j = 0, 0 { Z[i] = 1.0 }
}
"""


@pytest.mark.parametrize("n", [8, 64, 1000])
def test_sibling_loops_sharing_an_index_name_keep_their_own_ranges(n):
    program = build(SIBLINGS)
    profile = analyze_parallelism(program, {"N": n})
    v = profile.verdicts[0]
    assert (v.path, v.verdict, v.exact) == (("i",), "serial", True)
    assert_witness_well_formed(v)
    w = v.witness
    # both references sit in the first j loop, so both bind j = 1
    assert {w.ref_a, w.ref_b} == {"X[i]", "X[(i + j)]"}
    assert dict(w.env_a)["j"] == dict(w.env_b)["j"] == 1
    assert_exact_witnesses_collide_in_bounds(program, profile, "sib")


def test_adi_fusion_loses_parallel_outer_axes():
    before = fences.source("adi")
    after = fences.compiled("adi", "fusion").program
    p_before = analyze_parallelism(before, {"N": 11})
    p_after = analyze_parallelism(after, {"N": 11})
    assert len(p_before.parallel_nests()) == 6
    assert len(p_after.parallel_nests()) == 1
    # the newly-serial outer axes carry concrete witnesses
    for v in p_after.races:
        if v.depth == 0:
            assert_witness_well_formed(v)


def test_swim_fusion_preserves_parallel_outer_axes():
    before = fences.source("swim")
    after = fences.compiled("swim", "fusion").program
    p_before = analyze_parallelism(before, {"N": 11})
    p_after = analyze_parallelism(after, {"N": 11})
    # swim's stencils fuse without serializing: the parallel-nest count
    # grows (peeled boundary rows become their own parallel nests), so
    # the preservation check stays clean
    assert len(p_after.parallel_nests()) >= len(p_before.parallel_nests())
    bag = doall_preservation_check(before, after, "fuse-swim", {"N": 11})
    assert [d for d in bag if d.code == "R510"] == []


# -- hulls: triangular bounds, guards, empty loops ----------------------------

TRIANGLE = """
    program tri
    param N
    real A[N + 2]
    for i = 1, N { for j = i, N { A[j + 1] = f(A[j]) } }
    """


def test_triangular_race_is_decided_exhaustively():
    """Triangular bounds leave a hull; a witness found there counts once
    both of its environments are real iterations, so both axes are exact
    races on element 1, and the witnesses replay."""
    program = build(TRIANGLE)
    profile = analyze_parallelism(program, {"N": 8})
    assert [v.index for v in profile.verdicts] == ["i", "j"]
    for v in profile.verdicts:
        assert (v.verdict, v.exact) == ("serial", True)
        assert v.reason == "cross-lane dependence between A[j] and A[(j + 1)]"
        assert_witness_well_formed(v)
        w = v.witness
        assert (w.array, w.element, w.exact) == ("A", 1, True)
    assert_exact_witnesses_collide_in_bounds(program, profile, "tri")


TRANSPOSE = """
    program transpose
    param N
    real A[N, N]
    for i = 1, N { for j = 1, i { A[i, j] = f(A[j, i]) } }
    """


@pytest.mark.parametrize("n", [8, 64])
def test_triangular_transpose_is_doall(n):
    """Over the hull ``j in [1, N]`` every ``A[i, j]`` meets ``A[j, i]`` on
    another lane; each such solution puts one side above the diagonal,
    which the real bound ``j <= i`` rejects, so both axes are exact
    DOALL."""
    profile = analyze_parallelism(build(TRANSPOSE), {"N": n})
    assert [(v.index, v.verdict, v.exact) for v in profile.verdicts] == [
        ("i", "doall", True), ("j", "doall", True),
    ]


def test_an_exhausted_witness_search_is_counted_inexact():
    """At N=200 the transpose's hull holds more rejected solutions per
    lane distance than the search budget: the ``i`` axis stays a
    conservative, inexact ``serial`` naming the pair, counted once."""
    before = inexact_count()
    profile = analyze_parallelism(build(TRANSPOSE), {"N": 200})
    assert inexact_count() - before == 1
    v, inner = profile.verdicts
    assert (v.index, v.verdict, v.exact, v.witness) == ("i", "serial", False, None)
    assert v.reason == (
        "possible cross-lane dependence between A[j, i] and A[i, j] "
        "(witness search inconclusive)"
    )
    assert (inner.verdict, inner.exact) == ("doall", True)


EMPTY_OUTER = """
    program empty
    param N
    real A[N, N]
    for k = 7, N - 1 { for j = 2, N { A[j, k] = f(A[j - 1, k]) } }
    """


@pytest.mark.parametrize("n, verdict", [(7, "doall"), (8, "serial")])
def test_an_axis_inside_an_empty_loop_is_doall(n, verdict):
    """At N=7 the ``k`` loop never runs, so no race exists along ``j``:
    the shared ``k`` term's empty range proves it, though both
    references read ``k`` with one coefficient.  At N=8 ``k = 7`` runs."""
    program = build(EMPTY_OUTER)
    profile = analyze_parallelism(program, {"N": n})
    v = profile.verdicts[1]
    assert (v.path, v.verdict, v.exact) == (("k", "j"), verdict, True)
    if verdict == "serial":
        assert dict(v.witness.env_a)["k"] == dict(v.witness.env_b)["k"] == 7
    assert_exact_witnesses_collide_in_bounds(program, profile, "empty")


COUPLED = """
    program coupled
    param N
    real A[N, N]
    for i = 1, N { for j = i, N { for k = j - i + 1, N { A[k, j] = f(A[k, j]) } } }
    """


def test_coupled_bounds_keep_every_range_inside_the_iteration_space(monkeypatch):
    """``k``'s lower bound couples ``j`` and ``i``: widened one index at a
    time it reaches 1 - 12 + 1 = -10 at N=12, eliminated it is 1.  Every
    range the pair rule is given lies inside the real iteration space,
    and the verdicts are a brute-force enumeration's."""
    n = 12
    real: dict[str, tuple[int, int]] = {}
    instances = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j - i + 1, n + 1):
                instances.append((i, j, k))
                for name, v in zip("ijk", (i, j, k)):
                    lo, hi = real.get(name, (v, v))
                    real[name] = (min(lo, v), max(hi, v))
    used = []
    pair_rule = parallelism_module.lane_witness

    def recording(f, g, axis, admits):
        for side in (f, g):
            used.extend([(axis, side.lanes), *side.outer.items(), *side.inner.items()])
        return pair_rule(f, g, axis, admits)

    monkeypatch.setattr(parallelism_module, "lane_witness", recording)
    program = build(COUPLED)
    verdicts = analyze_parallelism(program, {"N": n}).verdicts
    assert {name.partition("#")[0] for name, _ in used} == set("ijk")
    for name, (lo, hi) in used:
        index = name.partition("#")[0]
        assert real[index][0] <= lo <= hi <= real[index][1], (name, (lo, hi))

    def brute_force(depth: int) -> str:
        """Serial when two instances on different lanes of the axis at
        ``depth``, under one binding of the loops outside it, touch one
        element (every access is ``A[k, j]``, a write among them)."""
        lanes: dict[tuple, set[int]] = {}
        for i, j, k in instances:
            at = (i, j, k)
            lanes.setdefault((at[:depth], (k, j)), set()).add(at[depth])
        return "serial" if any(len(v) > 1 for v in lanes.values()) else "doall"

    assert [v.verdict for v in verdicts] == [brute_force(d) for d in range(3)]
    assert [v.verdict for v in verdicts] == ["serial", "doall", "doall"]
    assert all(v.exact for v in verdicts)


@pytest.mark.parametrize(
    "body, verdicts",
    [
        ("for j = 1, N { A[j, i] = f(A[j, i]) }", {"i": "doall", "j": "doall"}),
        ("for j = 2, N { A[j, i] = f(A[j - 1, i]) }", {"i": "doall", "j": "serial"}),
    ],
    ids=["same-element", "stencil"],
)
def test_lane_distances_beyond_any_enumeration_are_solved_exactly(body, verdicts):
    """At N=9000 the lane distance is one solver term, so both axes are
    decided exactly, and the stencil's race sits at lane distance 1."""
    program = build(f"program t\nparam N\nreal A[N, N]\nfor i = 1, N {{ {body} }}\n")
    profile = analyze_parallelism(program, {"N": 9000})
    assert {v.index: (v.verdict, v.exact) for v in profile.verdicts} == {
        index: (verdict, True) for index, verdict in verdicts.items()
    }
    for v in profile.races:
        w = v.witness
        assert (w.exact, w.iter_a - w.iter_b) == (True, 1), w
        assert w.env_a == (("i", 1), ("j", 3)) and w.env_b == (("i", 1), ("j", 2))


@pytest.mark.parametrize(
    "body, reason",
    [
        (
            "proc p(k) { A[k + 1] = f(A[k]) }\nfor i = 1, N { call p(i) }",
            "outside affine subset: cannot analyze CallStmt",
        ),
        (
            "for i = 1, N { A[i / 2 + 1] = f(A[i]) }",
            "outside affine subset: fractional coefficient 1/2 of 'i' in 1/2*i",
        ),
    ],
)
def test_inputs_the_exhaustive_tier_refuses_stay_unknown(body, reason):
    program = build(f"program t\nparam N\nreal A[N + 2]\n{body}\n")
    (v,) = analyze_parallelism(program, {"N": 8}).verdicts
    assert (v.verdict, v.reason, v.exact, v.witness) == ("unknown", reason, False, None)


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
    bag = lint_races(fences.source("adi"), {"N": 11})
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
    before = fences.source("adi")
    after = fences.compiled("adi", "fusion").program
    bag = doall_preservation_check(before, after, "fuse-adi", {"N": 11})
    r510 = [d for d in bag if d.code == "R510"]
    assert r510, "adi fusion serializes outer axes and must be reported"
    assert any("of 6 parallel outer axes" in d.message for d in r510)
