"""Printer round-trip tests."""

import pytest

from repro.lang import parse, to_source, validate
from repro.programs import APPLICATIONS, build_fft, sweep3d


ROUND_TRIP_SOURCES = [
    """
    program basic
    param N
    real A[N], B[N]
    for i = 2, N { A[i] = f(A[i - 1], B[i]) }
    """,
    """
    program guards
    param N
    real A[N, N]
    for i = 1, N {
      when i in [1, 2:N - 1] { A[1, i] = 0.0 } else { A[2, i] = 1.0 }
      for j = 1, N { A[j, i] = g(A[j, i]) }
    }
    """,
    """
    program procs
    param N
    real A[N]
    scalar t
    proc fill(k) { A[k] = 0.5 }
    call fill(1)
    t = 2.0 * t + 1.0
    """,
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip(source):
    p = validate(parse(source))
    assert validate(parse(to_source(p))) == p


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_applications_round_trip(name):
    p = validate(APPLICATIONS[name].build())
    assert validate(parse(to_source(p))) == p


def test_fft_round_trip():
    p = validate(build_fft(32))
    assert validate(parse(to_source(p))) == p


def test_sweep3d_round_trip():
    p = validate(sweep3d.build())
    assert validate(parse(to_source(p))) == p


def test_source_is_readable():
    p = validate(APPLICATIONS["adi"].build())
    text = to_source(p)
    assert "program adi" in text
    assert "for i" in text or "for j" in text


# -- round-trip is preserved by every compiler pass ---------------------------
#
# The printer/parser pair must be lossless not just for hand-written
# sources but for everything the passes emit: guarded fusion output,
# peel loops, split arrays, negative alignment shifts.  parse(print(p))
# must reproduce the exact AST at every optimization level.

import fences  # noqa: E402
from repro.core import OPT_LEVELS  # noqa: E402
from repro.programs import registry  # noqa: E402

ALL_BENCHMARKS = sorted(set(registry.APPLICATIONS) | set(registry.STUDY_PROGRAMS))


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
@pytest.mark.parametrize("level", OPT_LEVELS)
def test_every_pass_output_round_trips(name, level):
    p = fences.compiled(name, level).program
    assert validate(parse(to_source(p))) == p
