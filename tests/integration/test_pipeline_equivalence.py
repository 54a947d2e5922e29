"""Bit-for-bit equivalence of the pass-manager pipelines with the
pre-refactor ``compile_variant``.

The golden files under ``golden/pipelines/`` were generated by the
historical if/else ``compile_variant``; they are the fence table's
``pipeline`` kind (``tests/fences.py``, which rewrites them).  Every
study program at every optimization level must fingerprint identically
through the declarative :class:`~repro.core.pm.PipelineSpec` registry:
same printed program, same stage checkpoints, same fusion report, same
regrouping decision, same layout placements.
"""

import pytest

import fences

CASES = list(fences.KINDS["pipeline"].rows)


@pytest.mark.parametrize(
    "name,level", CASES, ids=[f"{fences.name(n)}-{lv}" for n, lv in CASES]
)
def test_variant_matches_golden(name, level):
    assert fences.value("pipeline", name, level) == fences.expected("pipeline", name, level)


def test_goldens_cover_all_levels():
    from repro.core import OPT_LEVELS

    assert set(fences.LEVELS) == set(OPT_LEVELS)
    assert len(CASES) == 42  # 6 programs x 7 levels
