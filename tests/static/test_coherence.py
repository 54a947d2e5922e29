"""The coherence & false-sharing analyzer: synthetic kernels and golden profiles.

Two hand-built kernels carry the acceptance contract:

* ``colsweep`` — parallel over columns of a ``real A[10,M]`` array whose
  leading dimension is *not* a multiple of the 4-element cache line, so
  thread-boundary columns share lines without sharing elements: pure
  **false sharing**.  Padding the leading dimension to 12 aligns every
  column chunk and clears it (the R520 fix-it).
* ``rowcol`` — one nest parallel over columns writes A, the next nest
  parallel over rows rewrites it, so threads exchange the very same
  elements across nests: pure **true sharing**.

The analyzer runs the shared interleaver and the shared MSI automaton,
so there is no second implementation to cross-validate against here.
Behaviour is pinned instead: literal per-thread counts on the synthetics
and the fence table's ``coherence`` kind (``tests/fences.py``) — full
``as_dict()`` payloads, true/false split and witness bindings included,
of the six benchmark programs at ``noopt`` — generated at commit
5b2876e, before the analyzer moved onto the shared enumerator.  (When the array screens were deleted the
``screened_out`` lists became exact — five configurations gained names —
and the three ``dynamic`` entries were regenerated: the hull screen
ignored that schedule's per-invocation rotation and had left 504 of
tomcatv's 616 and 495 of swim's 1,164 invalidation misses out of the
true/false split.)  The independent oracle (own partitioner,
merge and set-based MSI) lives in ``tests/properties/test_coherence_props.py``.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.lang.errors import AnalysisError
from repro.memsim.geometry import ELEM_BYTES, L1_LINE_BYTES
from repro.obs import metrics
from repro.static import analyze_coherence, coherence
from repro.verify import lint_coherence

import fences
from conftest import build

LINE_ELEMS = L1_LINE_BYTES // ELEM_BYTES  # 4 elements per line

#: leading dimension 10 is not a multiple of 4, so ceil-block column
#: chunks of M=28 / T=4 = 7 columns end mid-line at two of the three
#: thread boundaries (keys 69|70 and 209|210 share a line)
COLSWEEP = """
program colsweep
param M
real A[10,M]
real B[10,M]
for j = 1, M {
  for i = 1, 10 {
    A[i,j] = B[i,j] + A[i,j]
  }
}
"""

COLSWEEP_PADDED = COLSWEEP.replace("[10,M]", "[12,M]")

ROWCOL = """
program rowcol
param N
real A[N,N]
for j = 1, N {
  for i = 1, N {
    A[i,j] = A[i,j] + 1.0
  }
}
for i = 1, N {
  for j = 1, N {
    A[i,j] = A[i,j] * 0.5
  }
}
"""


# -- false sharing: the unpadded column sweep ----------------------------------


def test_colsweep_false_sharing_detected():
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2
    )
    assert prof.total_invalidations == 4
    assert prof.false_invalidations == 4
    assert prof.true_invalidations == 0
    assert prof.invalidations == (1, 1, 1, 1)
    assert prof.screened_out == ()
    a = next(s for s in prof.arrays if s.array == "A")
    assert a.false_lines == 2 and a.true_lines == 0
    assert {w.kind for w in prof.witnesses} == {"false"}


def test_colsweep_witness_pinpoints_the_boundary():
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2
    )
    rendered = [w.render() for w in prof.witnesses]
    # ceil-blocks of 7 columns: t0 ends at column 7, t1 starts at 8;
    # A[10,7] (key 69) and A[1,8] (key 70) share line 17
    assert (
        "false sharing on A line 17: t0 @(j=7, i=10) vs t1 @(j=8, i=1)"
        " — distinct elements +1/+2" in rendered
    )


def test_the_witness_walk_checks_exactly_its_cap(monkeypatch):
    """t0 first touches key 69 at its 70th assignment instance, t1 key 70
    at its first: a cap of 70 instances finds both, 69 or 1 only t1's
    (the cap-th instance is still checked), 0 neither."""
    found = {}
    for cap in (70, 69, 1, 0):
        monkeypatch.setattr(coherence, "_WITNESS_WALK_CAP", cap)
        prof = analyze_coherence(build(COLSWEEP), {"M": 28}, threads=4, steps=2)
        found[cap] = (prof.witnesses[0].iter_a, prof.witnesses[0].iter_b)
    t0, t1 = (("j", 7), ("i", 10)), (("j", 8), ("i", 1))
    assert found == {70: (t0, t1), 69: ((), t1), 1: ((), t1), 0: ((), ())}


def test_false_sharing_witness_names_two_distinct_elements():
    # shrunk from tests/properties/test_coherence_props.py: the thread that
    # touched line 4 first (t1) last *read* element 18 there — the element
    # t0 then misses on — so the witness must name t1's neighbouring write
    # (element 19) that invalidated the line, not 18 against itself
    src = """
    program rnd
    param N
    real A[N + 2, N + 2], B[N + 2, N + 2]
    for i = 2, N - 1 {
      for j = 2, N - 1 {
        when j in [3:N - 2] { A[j + 1, i] = f(A[j - 1, i + 1], B[j, i]) }
        B[j, i] = g(A[j, i])
      }
    }
    """
    prof = analyze_coherence(build(src), {"N": 6}, threads=4)
    assert prof.witnesses and {w.kind for w in prof.witnesses} == {"false"}
    for w in prof.witnesses:
        assert w.elem_a != w.elem_b and w.thread_a != w.thread_b
        assert w.elem_a // prof.line_elems == w.elem_b // prof.line_elems == w.line
    assert prof.witnesses[0].render() == (
        "false sharing on A line 4: t1 @(i=3, j=3) vs t0 @(i=2, j=4)"
        " — distinct elements +3/+2"
    )


def test_padding_the_leading_dimension_clears_it():
    prof = analyze_coherence(
        build(COLSWEEP_PADDED), {"M": 28}, threads=4, steps=2
    )
    assert prof.total_invalidations == 0
    # with lead 12 every column chunk is line-aligned: no line of
    # either array is touched by two threads
    assert prof.screened_out == ("A", "B")
    assert prof.witnesses == ()


def test_r520_fires_unpadded_and_padding_clears_it():
    # the end-to-end acceptance path: lint reports the hotspot with a
    # concrete witness and the padding fix, and the fix silences it
    bag = lint_coherence(build(COLSWEEP), {"M": 28}, steps=2)
    codes = [d.code for d in bag]
    assert "R520" in codes
    r520 = next(d for d in bag if d.code == "R520")
    assert "false sharing on A line 17" in r520.message
    assert "pad" in r520.message.lower()
    assert [
        d.code
        for d in lint_coherence(build(COLSWEEP_PADDED), {"M": 28}, steps=2)
    ] == []


# -- true sharing: transposed nests --------------------------------------------


def test_rowcol_true_sharing_detected():
    prof = analyze_coherence(build(ROWCOL), {"N": 16}, threads=4, steps=2)
    assert prof.parallel_nests == (0, 1)
    assert prof.true_invalidations == 96
    assert prof.false_invalidations == 0
    assert prof.invalidations == (24, 24, 24, 24)
    assert {w.kind for w in prof.witnesses} == {"true"}


def parallelism_runs() -> float:
    return metrics.snapshot()["counters"].get("analysis.parallelism.runs", 0)


def test_r521_and_r522_fire_on_rowcol():
    before = parallelism_runs()
    bag = lint_coherence(build(ROWCOL), {"N": 16}, steps=2)
    # both schedules read one parallelism profile
    assert parallelism_runs() - before == 1
    codes = [d.code for d in bag]
    assert "R521" in codes and "R522" in codes
    assert "R520" not in codes
    r522 = next(d for d in bag if d.code == "R522")
    # static,1 shreds the column chunks: 624 invalidations vs 96
    assert "96" in r522.message and "624" in r522.message


# -- pinned counts on the synthetics --------------------------------------------

#: (threads, schedule) -> (accesses, invalidations, cold, upgrades)
COLSWEEP_COUNTS = {
    (2, "static"): (1680, (0, 0), (70, 70), 0),
    (2, "static,2"): (1680, (0, 0), (70, 70), 0),
    (2, "guided"): (1680, (3, 3), (98, 48), 9),
    (2, "dynamic"): (1680, (0, 0), (140, 140), 70),
    (4, "static"): (1680, (1, 1, 1, 1), (36, 36, 36, 36), 6),
    (4, "static,2"): (1680, (0, 0, 0, 0), (40, 40, 30, 30), 0),
    (4, "guided"): (1680, (2, 3, 3, 2), (52, 48, 28, 22), 15),
    (4, "dynamic"): (1680, (0, 1, 0, 1), (72, 70, 72, 70), 74),
}

#: schedule -> (invalidations, cold, upgrades) at T=4
ROWCOL_COUNTS = {
    "static": ((35, 30, 30, 15), (28, 28, 28, 16), 167),
    "static,3": ((53, 62, 59, 48), (30, 26, 27, 24), 278),
    "guided": ((52, 59, 68, 28), (36, 35, 33, 16), 272),
}


@pytest.mark.parametrize(
    "schedule", ["static", "static,2", "guided", "dynamic"]
)
@pytest.mark.parametrize("threads", [2, 4])
def test_colsweep_matches_oracle_exactly(threads, schedule):
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=threads, schedule=schedule,
        steps=2,
    )
    assert (
        prof.accesses, prof.invalidations, prof.cold, prof.upgrades
    ) == COLSWEEP_COUNTS[threads, schedule]


@pytest.mark.parametrize("schedule", ["static", "static,3", "guided"])
def test_rowcol_matches_oracle_exactly(schedule):
    prof = analyze_coherence(
        build(ROWCOL), {"N": 13}, threads=4, schedule=schedule, steps=2
    )
    assert (
        prof.invalidations, prof.cold, prof.upgrades
    ) == ROWCOL_COUNTS[schedule]


# -- the six benchmark programs: golden profiles --------------------------------


@pytest.mark.parametrize("name, case", [
    pytest.param(name, case, id=f"{fences.name(name)}-{case}")
    for name, _ in fences.KINDS["coherence"].rows
    for case in fences.COHERENCE_CASES
])
def test_profile_matches_golden(name, case):
    # every field, witnesses included, bit for bit
    prof = fences.coherence_profile(name, case)
    assert prof.as_dict() == fences.expected("coherence", name, "noopt", case)
    # every invalidation miss is classified, whatever the schedule
    assert (
        prof.true_invalidations + prof.false_invalidations
        == prof.total_invalidations
    )


def test_adi_shares_truly_not_falsely():
    # adi's nests partition alternating axes: threads exchange whole
    # rows/columns of elements, so its sharing is dominated by true
    # sharing (this is what R521 reports on adi in the baseline)
    prof = fences.coherence_profile("adi")
    assert prof.total_invalidations > 0
    assert prof.true_invalidations > prof.false_invalidations


def test_sweep3d_serial_program_never_invalidates():
    prof = fences.coherence_profile("sweep3d")
    assert prof.parallel_nests == ()
    assert prof.total_invalidations == 0


# -- degeneracies and guard rails ----------------------------------------------


def test_single_thread_has_no_sharing():
    prof = analyze_coherence(build(ROWCOL), {"N": 12}, threads=1, steps=2)
    assert prof.total_invalidations == 0
    assert prof.sharing_arrays() == ()


def test_finer_line_means_less_false_sharing(monkeypatch):
    # with 8-byte lines (one element each) false sharing is impossible
    monkeypatch.setattr("repro.memsim.geometry.L1_LINE_BYTES", ELEM_BYTES)
    prof = analyze_coherence(build(COLSWEEP), {"M": 28}, threads=4, steps=2)
    assert prof.line_elems == 1
    assert prof.total_invalidations == 0


@pytest.mark.parametrize("threads", [0, 64])
def test_thread_count_follows_the_automaton(threads):
    # one automaton, one rule: the analyzer raises simulate_msi's error
    with pytest.raises(ValueError, match=r"1\.\.63"):
        analyze_coherence(build(ROWCOL), {"N": 8}, threads=threads)


def test_tracer_rejections_surface_as_analysis_errors():
    # the one enumerator keeps every bounds check of the tracer
    oob = ROWCOL.replace("A[i,j] * 0.5", "A[i+1,j] * 0.5")
    with pytest.raises(AnalysisError, match="out-of-bounds"):
        analyze_coherence(build(oob), {"N": 4}, threads=2)


@pytest.mark.parametrize(
    "order", ["repro.static, repro.interp", "repro.interp, repro.static"]
)
def test_static_and_interp_import_in_either_order(order):
    # the analyzer runs the interpreter's enumerator and the interleaver
    # runs the static schedules: both directions are function-local
    subprocess.run([sys.executable, "-c", f"import {order}"], check=True)


def test_access_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(coherence, "DEFAULT_MAX_ACCESSES", 10)
    with pytest.raises(AnalysisError, match="exceeds 10 accesses"):
        analyze_coherence(build(COLSWEEP), {"M": 28}, threads=4, steps=2)


def test_witnesses_can_be_disabled():
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2, witnesses=False
    )
    assert prof.total_invalidations == 4
    assert prof.witnesses == ()


def test_with_invalidations_adds_to_private_misses():
    # the tune fold: invalidation misses stack on top of the capacity
    # model and can be excluded to recover the capacity-only view
    from repro.static import analyze_parallelism, analyze_program, predict_multicore

    program = build(ROWCOL)
    pred = predict_multicore(
        analyze_program(program, steps=2),
        analyze_parallelism(program, {"N": 16}),
        {"N": 16}, threads=4,
    )
    assert pred.invalidations == ()
    prof = analyze_coherence(
        program, {"N": 16}, threads=4, steps=2, witnesses=False
    )
    folded = pred.with_invalidations(prof.invalidations)
    assert folded.total_invalidations == 96
    cap = 256
    base = pred.private_miss_count(cap)
    assert folded.private_miss_count(cap) == pytest.approx(base + 96)
    # the shared view models the physically shared cache: no fold there
    assert folded.shared_miss_count(cap) == pred.shared_miss_count(cap)
    with pytest.raises(ValueError, match="4 threads"):
        pred.with_invalidations((1.0, 2.0))


def test_profile_serializes():
    prof = analyze_coherence(build(COLSWEEP), {"M": 28}, threads=4, steps=2)
    d = prof.as_dict()
    assert d["invalidations"] == [1, 1, 1, 1]
    assert d["line_bytes"] == L1_LINE_BYTES
    assert any(a["array"] == "A" for a in d["arrays"])
    text = prof.render()
    assert "colsweep" in text and "false" in text
