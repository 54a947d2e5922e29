"""Benchmark-program structural tests (Fig. 9 fidelity)."""

import pytest

from repro.lang import validate
from repro.programs import APPLICATIONS, STUDY_PROGRAMS, build_fft, get


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_builds_and_validates(name):
    p = validate(APPLICATIONS[name].build())
    assert p.name == name


def test_adi_structure():
    p = APPLICATIONS["adi"].build()
    assert p.array_count() == 3
    lo, hi = p.nest_depth_range()
    assert (lo, hi) == (1, 2)
    assert p.loop_count() >= 8  # the paper's 8 sweep loops + boundaries


def test_swim_structure():
    p = APPLICATIONS["swim"].build()
    assert p.array_count() == 15
    assert p.loop_nest_count() == 8
    assert p.nest_depth_range() == (1, 2)


def test_tomcatv_structure():
    p = APPLICATIONS["tomcatv"].build()
    assert p.array_count() == 7
    assert p.loop_nest_count() == 5


def test_sp_structure():
    p = APPLICATIONS["sp"].build()
    assert p.array_count() == 15
    lo, hi = p.nest_depth_range()
    assert (lo, hi) == (3, 4)  # component loops give the 4th level
    assert p.loop_nest_count() >= 15


def test_sp_array_splitting_count():
    from repro.transform import split_arrays, unroll_small_loops, inline_procedures

    p = APPLICATIONS["sp"].build()
    q = split_arrays(unroll_small_loops(inline_procedures(p)))
    # the paper: 15 arrays -> 42 after splitting; our mini-SP's component
    # dims give 5+5+5+3 slices + 11 plain = 29
    assert q.array_count() == 29
    assert q.array_count() > p.array_count()


def test_fft_power_of_two_only():
    validate(build_fft(64))
    with pytest.raises(ValueError):
        build_fft(48)
    with pytest.raises(ValueError):
        build_fft(2)


def test_fft_stage_count():
    import math

    n = 128
    p = build_fft(n)
    assert p.loop_nest_count() == int(math.log2(n))


def test_sweep3d_octants_and_angles():
    from repro.programs.sweep3d import ANGLES

    p = validate(STUDY_PROGRAMS["sweep3d"].build())
    assert p.loop_nest_count() == 4 * ANGLES


def test_registry_get():
    assert get("adi").name == "adi"
    assert get("sweep3d").name == "sweep3d"
    with pytest.raises(KeyError):
        get("nope")


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_paper_facts_present(name):
    facts = APPLICATIONS[name].paper_facts
    assert "arrays" in facts and "loop_nests" in facts


def test_resolve_target_builds_each_program_once():
    from repro.programs.registry import resolve_target

    small = resolve_target("adi", {"N": 12})
    large = resolve_target("adi", {"N": 40}, steps=3)
    # one parse + validation per process; sizes and steps stay per call
    assert small.program is large.program is resolve_target("adi").program
    assert (small.params, large.params) == ({"N": 12}, {"N": 40})
    assert (small.steps, large.steps) == (get("adi").steps, 3)
    # default sizes are handed out as copies of the registry's
    resolve_target("adi").params["N"] = 1
    assert resolve_target("adi").params == dict(get("adi").default_params)
    # fft is one program per n
    fft16 = resolve_target("fft", {"n": 16})
    assert fft16.program is resolve_target("fft", {"n": 16}).program
    assert fft16.program is not resolve_target("fft", {"n": 32}).program
    assert fft16.program == validate(build_fft(16))

