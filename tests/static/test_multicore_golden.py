"""Golden multicore predictions: registry variants x threads x schedules,
pinned by digest.

The fence table's ``multicore`` kind (``tests/fences.py``) holds, per
variant, size, thread count and schedule, the sha256 of the
``float.hex`` spelling of a :class:`~repro.static.MulticorePrediction`'s
private and shared ``(count, distance)`` pairs and cold counts, so "the
prediction is unchanged" holds bit for bit across commits.
``test_multicore_crossval`` only bounds the mean log2 distance against
the interleaved oracle; the fences pin the values.  The fig-10 sizes and
sp's fused levels run under the ``slow`` marker.
"""

from __future__ import annotations

import pytest

import fences

KIND = fences.KINDS["multicore"]


def _slow(name: str, level: str, sub: str) -> bool:
    """sp's fused levels, and every program at its fig-10 size."""
    return sub != KIND.rows[name, level][0] or name == "sp" and level in ("fusion", "new")


@pytest.mark.parametrize("name, level, sub", [
    pytest.param(
        name, level, sub,
        marks=[pytest.mark.slow] if _slow(name, level, sub) else [],
        id=f"{name}/{level}@{sub}",
    )
    for (name, level), subs in KIND.rows.items()
    for sub in subs
])
def test_prediction_matches_golden(name, level, sub):
    assert fences.value("multicore", name, level, sub) == fences.expected(
        "multicore", name, level, sub
    ), f"{name}/{level}@{sub}: multicore prediction differs from the fence table"
