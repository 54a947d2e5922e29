"""Evadable-reuse classification tests (paper §2.1-2.2)."""

from repro.interp import trace_program
from repro.locality import (
    classify_evadable,
    classify_evadable_stats,
    per_class_stats,
)
from repro.static import analyze_program

from conftest import build

# Two loops sweeping the whole array: the reuse of A between them grows
# with N (evadable).  The in-loop recurrence reuse of A[i-1] is constant.
SRC = """
program t
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1]) }
for i = 1, N { B[i] = g(A[i]) }
"""

# Fused version: all reuses short and size-independent.
SRC_FUSED = """
program t
param N
real A[N], B[N]
for i = 2, N {
  A[i] = f(A[i - 1])
  B[i] = g(A[i])
}
B[1] = g(A[1])
"""


def traces(src):
    p = build(src)
    return (
        trace_program(p, {"N": 200}),
        trace_program(p, {"N": 800}),
    )


def test_per_class_stats_groups_by_reference():
    p = build(SRC)
    t = trace_program(p, {"N": 64})
    stats = per_class_stats(t)
    assert stats  # at least the recurrence and cross-loop classes
    for s in stats.values():
        assert s.reuses > 0
        assert s.mean_distance >= 0


def test_cross_loop_reuse_is_evadable():
    small, large = traces(SRC)
    report = classify_evadable(small, large)
    assert report.evadable_reuses > 0
    # the evadable class is the second loop's read of A
    ref_texts = {large.refs[r].text for r in report.evadable_classes}
    assert "A[i]" in ref_texts
    # the recurrence reuse A[i-1] must NOT be evadable
    assert all("A[(i - 1)]" != t for t in ref_texts)


def test_fused_version_almost_free_of_evadable_reuses():
    # only the peeled boundary statement's single reuse (B[1] = g(A[1]))
    # still spans the loop — a constant number of dynamic reuses, not a
    # constant fraction
    small, large = traces(SRC_FUSED)
    report = classify_evadable(small, large)
    assert report.evadable_reuses <= 2
    assert report.evadable_fraction < 0.01


def test_evadable_change_measures_reduction():
    before = classify_evadable(*traces(SRC))
    after = classify_evadable(*traces(SRC_FUSED))
    # essentially all evadable reuses removed
    assert after.evadable_reuses < 0.01 * before.evadable_reuses


def test_classify_evadable_program_static_matches_dynamic():
    # the static side predicts the class stats without a trace; both
    # sides run the one decision rule
    p = build(SRC)
    small, large = {"N": 200}, {"N": 800}
    profile = analyze_program(p)
    static = classify_evadable_stats(
        profile.class_stats(small), profile.class_stats(large)
    )
    dynamic = classify_evadable(trace_program(p, small), trace_program(p, large))
    assert static.evadable_classes == dynamic.evadable_classes
    assert static.evadable_classes  # the cross-loop read of A
