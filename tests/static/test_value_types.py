"""The static analysis's values are tuples: a polynomial, a region hull
and a loop context hash and compare in C, structurally, and still read
as the records they are (``tests/lang/test_affine.py`` covers the
affine form they are built from)."""

import copy
import pickle
from dataclasses import asdict, dataclass

import pytest

from repro.lang import Affine
from repro.obs.spans import _plain
from repro.static.model import LoopCtx
from repro.static.poly import Poly
from repro.static.regions import Hull

N = Affine.var("N")
ONE = Affine.constant(1)
POLY = Poly.from_affine(N + 1) * Poly.from_affine(N - 1)
HULL = Hull("A", ((ONE, N), (N - 1, N - 1)))
CTX = LoopCtx("i", ONE, N, ((ONE, N, 1), (ONE, ONE, -1)), False, 3)


@dataclass(frozen=True)
class _Holder:
    value: object
    values: tuple


@pytest.mark.parametrize("value", [POLY, HULL, CTX], ids=["Poly", "Hull", "LoopCtx"])
def test_equal_values_hash_equal_and_round_trip(value):
    rebuilt = type(value)(*(copy.deepcopy(field) for field in value))
    assert rebuilt == value and hash(rebuilt) == hash(value)
    holder = _Holder(value, (value, value))
    for copied in (pickle.loads(pickle.dumps(holder)), copy.deepcopy(holder)):
        assert copied == holder and type(copied.value) is type(value)
    plain = asdict(holder)
    assert plain == {"value": value, "values": (value, value)}
    assert type(plain["value"]) is type(value)


def test_str_and_repr_are_unchanged():
    assert str(POLY) == repr(POLY) == "N^2 - 1"
    assert _plain(POLY) == "N^2 - 1"
    assert repr(HULL) == "Hull(array='A', dims=((1, N), (N - 1, N - 1)), exact=True)"
    assert repr(CTX) == (
        "LoopCtx(index='i', lo=1, hi=N, pieces=((1, N, 1), (1, 1, -1)), "
        "exact=False, loop_id=3)"
    )
    # a record without its own text is a sequence to the span renderer,
    # its forms text
    assert _plain(HULL) == ["A", [["1", "N"], ["N - 1", "N - 1"]], True]


def test_loop_context_trip_is_its_signed_pieces():
    assert str(CTX.trip) == "N - 1"
    assert HULL.measure() == Poly.from_affine(N)
