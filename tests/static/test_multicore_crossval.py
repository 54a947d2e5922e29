"""Cross-validation of the static multicore reuse prediction.

:func:`repro.static.predict_multicore` predicts, without running
the program, the shared-cache and per-thread private-cache reuse-distance
histograms of an OpenMP-style scheduled execution.  The oracle is
:func:`repro.interp.interleave_trace`, which actually interleaves the
per-thread traces round-robin and measures both views.

Tolerances mirror the sequential model's acceptance bar: access totals
must match exactly, and the mean log2 reuse distance (MLD) of each view
must agree within 0.5 — on *both* views, for every program, sp
included.  (sp's private view needed the thread-coverage refinement of
the cross-nest attribution: its consumer nests partition a different
axis than their producers, so on-thread reuse is the box overlap of the
two thread chunks rather than all-or-nothing.  Measured worst case at
these sizes: sp private 0.43 at T=4.)

The chunked schedules (``static,k``, ``guided``) are covered both here
(crossval smoke) and by unit tests on the chunk-boundary degradation in
``test_schedule.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.interp import interleave_trace, trace_program
from repro.locality import ReuseHistogram, reuse_distances
from repro.programs import registry
from repro.static import analyze_parallelism, analyze_program, predict_multicore

SHARED_MLD_TOL = 0.5
PRIVATE_MLD_TOL = 0.5

#: programs whose both views are checked at tier-1 sizes
FULL_CHECK = ["adi", "swim", "tomcatv"]


def predict(program, params, threads, schedule="static", steps=1):
    """The reuse profile and the parallelism verdicts, composed."""
    return predict_multicore(
        analyze_program(program, steps=steps),
        analyze_parallelism(program, params),
        params, threads, schedule,
    )


def crossval(name: str, n: int, threads: int, schedule: str = "static"):
    entry = registry.get(name)
    program = entry.build()
    params = {"N": n}
    run = interleave_trace(
        program, params, threads, steps=entry.steps, schedule=schedule
    )
    pred = predict(program, params, threads, schedule, entry.steps)
    shared = ReuseHistogram.from_distances(reuse_distances(run.merged))
    private = ReuseHistogram()
    keys = np.asarray(run.merged)
    for t in range(threads):
        own = keys[run.merged_threads == t]
        private = private + ReuseHistogram.from_distances(reuse_distances(own))
    return run, pred, shared, private


def mld_delta(a: ReuseHistogram, b: ReuseHistogram) -> float:
    return abs(a.mean_log_distance() - b.mean_log_distance())


# -- static schedule, both thread counts --------------------------------------


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name", FULL_CHECK)
def test_prediction_matches_interleaved_run(name, threads):
    run, pred, shared, private = crossval(name, 16, threads)
    assert pred.total == run.total, (
        f"{name} T={threads}: predicted {pred.total} accesses, ran {run.total}"
    )
    sh = mld_delta(pred.shared_histogram(), shared)
    pr = mld_delta(pred.private_histogram(), private)
    assert sh <= SHARED_MLD_TOL, f"{name} T={threads}: shared MLD off by {sh:.2f}"
    assert pr <= PRIVATE_MLD_TOL, f"{name} T={threads}: private MLD off by {pr:.2f}"


@pytest.mark.parametrize("threads", [2, 4])
def test_sp_both_views_match(threads):
    # N=10 keeps the interleaved oracle under ~5s; measured deltas are
    # shared 0.21/0.42 and private 0.31/0.43 (T=2/T=4)
    run, pred, shared, private = crossval("sp", 10, threads)
    assert pred.total == run.total
    sh = mld_delta(pred.shared_histogram(), shared)
    pr = mld_delta(pred.private_histogram(), private)
    assert sh <= SHARED_MLD_TOL, f"sp T={threads}: shared MLD off by {sh:.2f}"
    assert pr <= PRIVATE_MLD_TOL, f"sp T={threads}: private MLD off by {pr:.2f}"


# -- chunked schedules ---------------------------------------------------------


@pytest.mark.parametrize("schedule", ["static,2", "guided"])
def test_chunked_schedule_crossval(schedule):
    run, pred, shared, private = crossval("adi", 16, 4, schedule=schedule)
    assert pred.total == run.total
    assert mld_delta(pred.shared_histogram(), shared) <= SHARED_MLD_TOL
    assert mld_delta(pred.private_histogram(), private) <= PRIVATE_MLD_TOL


def test_finer_chunks_never_predict_better_private_locality():
    # static,1 maximizes chunk boundaries; the boundary degradation must
    # be monotone: its predicted private misses >= plain static's
    entry = registry.get("swim")
    program = entry.build()
    cap = 1024
    by_schedule = {}
    for schedule in ("static", "static,4", "static,1"):
        pred = predict(program, {"N": 16}, 4, schedule, entry.steps)
        by_schedule[schedule] = pred.private_miss_count(cap)
    assert by_schedule["static"] <= by_schedule["static,4"] + 1e-9
    assert by_schedule["static,4"] <= by_schedule["static,1"] + 1e-9


# -- degeneracies -------------------------------------------------------------


def test_single_thread_degenerates_to_sequential_trace():
    entry = registry.get("adi")
    program = entry.build()
    run = interleave_trace(program, {"N": 12}, 1, steps=entry.steps)
    plain = trace_program(program, {"N": 12}, steps=entry.steps).global_keys()
    assert np.array_equal(run.merged, plain)
    assert not run.merged_threads.any()


def test_all_serial_program_is_unchanged_by_threads():
    # sweep3d's wavefront nests are all serial: no axis to split, so the
    # interleaved trace IS the sequential trace at any thread count
    entry = registry.get("sweep3d")
    program = entry.build()
    run = interleave_trace(program, {"N": 6}, 4, steps=entry.steps)
    plain = trace_program(program, {"N": 6}, steps=entry.steps).global_keys()
    assert run.parallel_nests == ()
    assert np.array_equal(run.merged, plain)
    pred = predict(program, {"N": 6}, 4, steps=entry.steps)
    assert pred.parallel_nests == ()
    assert pred.total == run.total


def test_dynamic_schedule_smoke():
    run, pred, shared, _ = crossval("swim", 12, 4, schedule="dynamic")
    assert pred.total == run.total
    assert mld_delta(pred.shared_histogram(), shared) <= SHARED_MLD_TOL


# -- full matrix at fig-10 sizes ----------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name", ["adi", "sp", "swim", "tomcatv"])
def test_fig10_size_crossval(name, threads):
    entry = registry.get(name)
    n = entry.default_params.get("N", 16)
    run, pred, shared, private = crossval(name, n, threads)
    assert pred.total == run.total
    assert mld_delta(pred.shared_histogram(), shared) <= SHARED_MLD_TOL
    assert mld_delta(pred.private_histogram(), private) <= PRIVATE_MLD_TOL
