"""Static-vs-dynamic cross-validation on the bundled applications.

The symbolic profile must agree with the trace-driven engine it
replaces: identical access totals, cold counts within a pinned
tolerance, mean log₂ reuse distance within a pinned tolerance, and —
the headline guarantee — *exact* per-class evadable agreement on the
unoptimized programs at the Fig. 10 sizes (small_params and its
doubling), since that classification is what drives every downstream
transform decision.

The fast tier pins the smallest program (sp) and adi; the ``slow``
marker sweeps the full 6-program × 3-level matrix.
"""

import pytest

from repro.core import PIPELINES, PassManager
from repro.interp import trace_program
from repro.locality import ReuseHistogram, classify_evadable, reuse_distances
from repro.programs import registry
from repro.programs.fft import SMALL_N
from repro.programs.registry import build_fft
from repro.static import analyze_program

#: |dynamic - static| ceiling for mean log2 reuse distance, all programs
MLD_TOLERANCE = 0.5
#: relative cold-miss error ceiling (fft's guarded bit-reversal pass is
#: the one program where interval fallbacks overestimate sharing)
COLD_TOLERANCE = {"fft": 0.35}
COLD_TOLERANCE_DEFAULT = 0.08

LEVELS = ("noopt", "fusion", "new")
SYMBOLIC_PROGRAMS = ("adi", "sp", "swim", "tomcatv", "sweep3d")


def _variant(program, level):
    if level == "noopt":
        return program
    return PassManager(program).run(PIPELINES[level]).program


def _dynamic_histogram(program, params, steps):
    tr = trace_program(program, dict(params), steps=steps)
    return ReuseHistogram.from_distances(reuse_distances(tr.global_keys()))


def _check_histogram(name, program, params, steps, level):
    variant = _variant(program, level)
    static = analyze_program(variant, steps=steps).histogram(params)
    dynamic = _dynamic_histogram(variant, params, steps)
    assert static.total == dynamic.total, (
        f"{name}/{level}: totals {static.total} != {dynamic.total}"
    )
    cold_tol = COLD_TOLERANCE.get(name, COLD_TOLERANCE_DEFAULT)
    assert abs(static.cold - dynamic.cold) <= cold_tol * dynamic.cold, (
        f"{name}/{level}: cold {static.cold} vs {dynamic.cold}"
    )
    mld_s = static.mean_log_distance()
    mld_d = dynamic.mean_log_distance()
    assert abs(mld_s - mld_d) <= MLD_TOLERANCE, (
        f"{name}/{level}: MLD {mld_s:.2f} vs {mld_d:.2f}"
    )


def _check_evadable_agreement(name, level):
    entry = registry.get(name)
    variant = _variant(entry.build(), level)
    small = dict(entry.small_params)
    large = {k: 2 * v for k, v in small.items()}
    dynamic = classify_evadable(
        trace_program(variant, small, steps=entry.steps),
        trace_program(variant, large, steps=entry.steps),
    ).evadable_classes
    static = analyze_program(variant, steps=entry.steps).evadable_classes(
        small, large
    )
    assert static == dynamic, (
        f"{name}/{level}: onlyDynamic={sorted(dynamic - static)} "
        f"onlyStatic={sorted(static - dynamic)}"
    )


# -- fast tier ------------------------------------------------------------


def test_sp_histogram_crossvalidates_noopt():
    entry = registry.get("sp")
    _check_histogram(
        "sp", entry.build(), dict(entry.small_params), entry.steps, "noopt"
    )


def test_adi_histogram_crossvalidates_noopt():
    entry = registry.get("adi")
    _check_histogram(
        "adi", entry.build(), dict(entry.small_params), entry.steps, "noopt"
    )


def test_sp_evadable_agreement_is_exact():
    _check_evadable_agreement("sp", "noopt")


def test_fft_histogram_crossvalidates():
    _check_histogram("fft", build_fft(SMALL_N), {}, 1, "noopt")


def test_static_histogram_extrapolates_beyond_measured_size():
    # the point of a symbolic profile: one analysis, any size — check a
    # size never traced stays conserved and monotone in total accesses
    entry = registry.get("sp")
    profile = analyze_program(entry.build(), steps=entry.steps)
    big = {k: 4 * v for k, v in entry.small_params.items()}
    hist = profile.histogram(big)
    assert hist.total == int(profile.total_accesses().evaluate(big))


# -- full matrix ----------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", SYMBOLIC_PROGRAMS)
def test_full_histogram_matrix(name, level):
    entry = registry.get(name)
    _check_histogram(
        name, entry.build(), dict(entry.small_params), entry.steps, level
    )


@pytest.mark.slow
@pytest.mark.parametrize("level", LEVELS)
def test_fft_histogram_all_levels(level):
    _check_histogram("fft", build_fft(SMALL_N), {}, 1, level)


@pytest.mark.slow
@pytest.mark.parametrize("name", SYMBOLIC_PROGRAMS)
def test_noopt_evadable_agreement_is_exact(name):
    _check_evadable_agreement(name, "noopt")
