"""Golden multicore predictions: registry variants x threads x schedules,
pinned by digest.

``golden_multicore.json`` holds, per variant, thread count and
schedule, the sha256 of the ``float.hex`` spelling of a
:class:`~repro.static.MulticorePrediction`'s private and shared
``(count, distance)`` pairs and cold counts, so "the prediction is
unchanged" holds bit for bit across commits.  ``test_multicore_crossval``
only bounds the mean log2 distance against the interleaved oracle; this
file pins the values.  The fig-10 sizes and sp's fused levels run under
the ``slow`` marker.

``PYTHONPATH=src python tests/static/test_multicore_golden.py`` rewrites
the file — only for an intended change to the prediction, listed in the
commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import compile_variant
from repro.programs import registry
from repro.static import analyze_parallelism, analyze_program, predict_multicore

GOLDEN = Path(__file__).with_name("golden_multicore.json")

THREADS = (2, 4)
SCHEDULES = ("static", "static,2", "guided", "dynamic")

#: (program, level, N) at tier-1 sizes
FAST = [
    *((name, level, 16)
      for name in ("adi", "swim", "tomcatv", "sweep3d")
      for level in ("noopt", "new")),
    ("sp", "noopt", 8),
    ("sp", "regroup", 8),
]

#: sp's fused levels, and every program at its fig-10 size
SLOW = [
    ("sp", "fusion", 8),
    ("sp", "new", 8),
    *((name, level, registry.get(name).default_params["N"])
      for name in ("adi", "swim", "tomcatv", "sweep3d")
      for level in ("noopt", "new")),
    *(("sp", level, registry.get("sp").default_params["N"])
      for level in ("noopt", "regroup")),
]


def prediction_digests(name: str, level: str, n: int) -> dict[str, str]:
    """``"T=<threads> <schedule>"`` -> the digest of that prediction of
    one variant at ``N=n``; the profiles are analyzed once per variant."""
    target = registry.resolve_target(name)
    program = compile_variant(target.program, level).program
    params = {"N": n}
    profile = analyze_program(program, steps=target.steps)
    parallelism = analyze_parallelism(program, params)
    out = {}
    for threads in THREADS:
        for schedule in SCHEDULES:
            pred = predict_multicore(profile, parallelism, params, threads, schedule)
            values = [
                [[c.hex(), d.hex()] for c, d in pred.private_pairs],
                [[c.hex(), d.hex()] for c, d in pred.shared_pairs],
                pred.private_cold.hex(),
                pred.shared_cold.hex(),
            ]
            text = json.dumps(values)
            out[f"T={threads} {schedule}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _key(name: str, level: str, n: int) -> str:
    return f"{name}/{level}@N={n}"


VARIANTS = [
    pytest.param(*case, marks=marks, id=_key(*case))
    for cases, marks in ((FAST, []), (SLOW, [pytest.mark.slow]))
    for case in cases
]


@pytest.mark.parametrize("name, level, n", VARIANTS)
def test_prediction_matches_golden(name, level, n):
    golden = json.loads(GOLDEN.read_text())[_key(name, level, n)]
    assert prediction_digests(name, level, n) == golden, (
        f"{_key(name, level, n)}: multicore prediction differs from {GOLDEN.name}"
    )


def write_golden() -> None:
    """Rewrite ``golden_multicore.json`` from the current predictor."""
    golden = {_key(*case): prediction_digests(*case) for case in FAST + SLOW}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
