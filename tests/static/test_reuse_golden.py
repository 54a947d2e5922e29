"""Golden static reuse profiles: every program x level, pinned by digest.

The fence table's ``reuse`` kind (``tests/fences.py``) holds the sha256
of ``analyze_program(variant, steps).to_json()`` for the 42 variants of
the five registry programs and fft (at n=64), each at its registry step
count, so "the profile is unchanged" holds across commits, not only
within one.  Variants whose analysis costs about a second or more run
under the ``slow`` marker.
"""

from __future__ import annotations

import pytest

import fences

#: variants whose analysis takes about a second or more
SLOW = {("sp", "fusion1"), ("sp", "fusion"), ("sp", "new")}


@pytest.mark.parametrize("name, level", [
    pytest.param(
        name, level,
        marks=[pytest.mark.slow] if (name, level) in SLOW else [],
        id=f"{fences.name(name)}/{level}",
    )
    for name, level in fences.KINDS["reuse"].rows
])
def test_profile_matches_golden(name, level):
    assert fences.value("reuse", name, level) == fences.expected("reuse", name, level), (
        f"{name}/{level}: static reuse profile differs from the fence table"
    )
