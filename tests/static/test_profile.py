"""StaticProfile invariants: evaluation, histograms, classification.

The profile is symbolic — one analysis, evaluable at any size — so the
tests here check conservation laws (accesses are never created or lost),
consistency between the evaluated views, and above all that *no trace is
generated anywhere* (``analysis.static.*`` metrics tick, ``trace.*``
stay put).
"""

import pytest

from repro.core import OPT_LEVELS, compile_variant
from repro.locality import classify_evadable_stats
from repro.obs import snapshot
from repro.programs import registry
from repro.static import analyze_program
from repro.static import reuse as reuse_module
from repro.static.regions import ref_hull

from conftest import build

SRC = """
program t
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1]) }
for i = 1, N { B[i] = g(A[i]) }
"""


def _trace_counter_total(counters) -> float:
    return sum(v for k, v in counters.items() if k.startswith("trace."))


def test_analysis_is_trace_free():
    before = snapshot()["counters"]
    profile = analyze_program(build(SRC))
    after = snapshot()["counters"]
    assert after.get("analysis.static.runs", 0) > before.get(
        "analysis.static.runs", 0
    )
    assert _trace_counter_total(after) == _trace_counter_total(before)
    assert profile.classes  # and it actually produced something


def test_access_conservation_at_any_size():
    profile = analyze_program(build(SRC))
    for n in (16, 64, 257):
        params = {"N": n}
        total = float(profile.total_accesses().evaluate(params))
        evaluated = profile.evaluate(params)
        accounted = sum(ec.reuses + ec.cold for ec in evaluated)
        assert accounted == total
        hist = profile.histogram(params)
        assert hist.total == int(total)


def test_histogram_cold_matches_footprint():
    # every distinct element is cold exactly once per run
    profile = analyze_program(build(SRC))
    params = {"N": 100}
    hist = profile.histogram(params)
    assert hist.cold == int(profile.footprint.evaluate(params))


def test_miss_count_monotone_in_capacity():
    profile = analyze_program(build(SRC))
    params = {"N": 128}
    misses = [profile.miss_count(params, c) for c in (4, 16, 64, 256, 4096)]
    assert misses == sorted(misses, reverse=True)
    # an infinite cache keeps only the cold misses
    assert misses[-1] >= float(profile.histogram(params).cold)


def test_symbolic_evadable_flags_the_cross_loop_read():
    profile = analyze_program(build(SRC))
    evadable = profile.symbolic_evadable()
    texts = {profile.classes[r].ref.text for r in evadable}
    assert "A[i]" in texts  # second loop re-reads A a whole sweep later
    assert "A[(i - 1)]" not in texts  # recurrence reuse is constant


def test_evadable_classes_uses_the_shared_decision_rule():
    profile = analyze_program(build(SRC))
    small, large = {"N": 128}, {"N": 512}
    expected = classify_evadable_stats(
        profile.class_stats(small), profile.class_stats(large)
    ).evadable_classes
    assert profile.evadable_classes(small, large) == expected


def test_render_and_json_roundtrip():
    entry = registry.get("adi")
    profile = analyze_program(entry.build(), steps=entry.steps)
    text = profile.render(dict(entry.small_params))
    assert "static reuse profile: adi" in text
    assert "evadable" in text
    payload = profile.to_json(dict(entry.small_params))
    assert payload["program"] == "adi"
    assert payload["classes"]
    assert payload["predicted"]["histogram"]
    assert payload["evadable_symbolic"]


def test_attribution_reports_its_work_once_per_model():
    """One ``attribute`` span under ``static-reuse`` carries the ladder's
    call counts; the same integers land in ``analysis.static.*``."""
    from repro.obs import SpanCollector

    program = compile_variant(registry.get("adi").build(), "fusion").program
    before = snapshot()["counters"]
    with SpanCollector() as collector:
        profile = analyze_program(program)
    after = snapshot()["counters"]
    (outer,) = [e for e in collector.events if e.name == "static-reuse"]
    (inner,) = [e for e in collector.events if e.name == "attribute"]
    assert inner.path == "static-reuse.attribute" and inner.depth == outer.depth + 1
    assert inner.attrs["refs"] == outer.attrs["refs"] == len(profile.model.refs)
    assert inner.attrs["components"] == sum(
        len(c.components) for c in profile.classes
    )
    work = (
        "window_distance", "shift_candidates", "union_hulls", "eliminate",
        "hulls", "hull_hits",
    )
    for name in work:
        calls = inner.attrs[name]
        assert type(calls) is int and calls > 0, name
        key = f"analysis.static.{name}"
        assert after.get(key, 0) - before.get(key, 0) == calls
    # a second model starts its own count: same program, same integers
    with SpanCollector() as again:
        analyze_program(program)
    (second,) = [e for e in again.events if e.name == "attribute"]
    assert {n: second.attrs[n] for n in work} == {n: inner.attrs[n] for n in work}


def test_solve_delta_keeps_strided_shifts_exact():
    """Stride-2 subscripts: an even offset is one iteration back, an odd
    one is no iteration at all — never a float 0.5 rounded either way."""
    from repro.static import build_model, solve_delta

    model = build_model(
        build(
            """
            program t
            param N
            real A[2 * N], B[N]
            for i = 2, N {
              A[2 * i] = f(A[2 * i - 2], A[2 * i - 1])
              B[i] = g(A[2 * i])
            }
            """
        )
    )
    even, odd, write, later, _ = model.refs
    assert [str(r.subs[0]) for r in (even, odd, write, later)] == [
        "2*i - 2", "2*i - 1", "2*i", "2*i",
    ]
    assert solve_delta(write, even) == (1,)
    assert solve_delta(write, odd) is None
    assert solve_delta(odd, even) is None
    shift = solve_delta(write, later)
    assert shift == (0,) and type(shift[0]) is int


# -- the hull memo changes no number -------------------------------------------

MEMO_CASES = [
    (name, level)
    for name in ("adi", "swim", "tomcatv", "fft")
    for level in OPT_LEVELS
] + [("sp", "noopt")]


@pytest.mark.parametrize("name, level", MEMO_CASES)
def test_hull_memo_changes_no_number(name, level, monkeypatch):
    """Classes, components and predicted misses at two sizes are those
    of an attributor that recomputes every hull."""
    source = registry.build_fft(64) if name == "fft" else registry.get(name).build()
    program = compile_variant(source, level).program
    sizes = [{}] if name == "fft" else [{"N": 24}, {"N": 61}]

    def numbers(profile):
        return profile.to_json(), [
            profile.miss_count(params, capacity)
            for params in sizes
            for capacity in (512, 8192)
        ]

    memoised = numbers(analyze_program(program))
    monkeypatch.setattr(
        reuse_module._Attributor,
        "hull",
        lambda self, ref, start=0, window=None: ref_hull(ref, start, window),
    )
    assert numbers(analyze_program(program)) == memoised
