"""Golden dependence snapshots: every program x level, pinned by digest.

The fence table's ``snapshot`` kind (``tests/fences.py``) holds one
sha256 per variant of the five registry programs and fft (at n=64),
each snapshotted at :data:`~repro.verify.DEFAULT_VERIFY_PARAM` for
every parameter.  The digest covers the canonical write chains — per
cell its write instances' rendered statement, iteration vector, value
signature (every number as ``str(Fraction(x))``) and ``(cell, epoch)``
reads — so "the snapshot is unchanged" holds across commits, not only
within one.  sp's fused variants run under the ``slow`` marker.
"""

from __future__ import annotations

import pytest

import fences

#: variants whose snapshot and digest take about two seconds
SLOW = {("sp", "fusion1"), ("sp", "fusion"), ("sp", "regroup"), ("sp", "new")}


@pytest.mark.parametrize("name, level", [
    pytest.param(
        name, level,
        marks=[pytest.mark.slow] if (name, level) in SLOW else [],
        id=f"{fences.name(name)}/{level}",
    )
    for name, level in fences.KINDS["snapshot"].rows
])
def test_snapshot_matches_golden(name, level):
    assert fences.value("snapshot", name, level) == fences.expected("snapshot", name, level), (
        f"{name}/{level}: snapshot differs from the fence table"
    )
