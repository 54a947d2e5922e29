"""Golden dependence snapshots: every program x level, pinned by digest.

``golden_snapshots.json`` holds one sha256 per variant of the five
registry programs and fft, each snapshotted at
:data:`~repro.verify.DEFAULT_VERIFY_PARAM` for every parameter.  The
digest covers the canonical write chains — per cell its write
instances' rendered statement, iteration vector, value signature (every
number as ``str(Fraction(x))``) and ``(cell, epoch)`` reads — so "the
snapshot is unchanged" holds across commits, not only within one.

``PYTHONPATH=src python tests/verify/test_snapshot_golden.py`` rewrites
the file — only for an intended change to the snapshot, listed in the
commit.  sp's fused variants run under the ``slow`` marker.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import OPT_LEVELS, compile_variant
from repro.programs import registry
from repro.verify import snapshot_program

GOLDEN = Path(__file__).with_name("golden_snapshots.json")

PROGRAMS = ("adi", "fft", "sp", "sweep3d", "swim", "tomcatv")

#: variants whose snapshot and digest take about two seconds
SLOW = {("sp", "fusion1"), ("sp", "fusion"), ("sp", "regroup"), ("sp", "new")}


def _sig(sig: object) -> object:
    """A signature as JSON: every number as ``str(Fraction)``."""
    if isinstance(sig, tuple):
        if sig[0] == "r":  # ("r", cell, epoch)
            return sig
        return [_sig(part) for part in sig]
    if isinstance(sig, (str, int)):
        return str(sig)
    return str(Fraction(sig))


def snapshot_digest(name: str, level: str) -> str:
    """The digest of one variant's snapshot at the default verify size."""
    program = compile_variant(registry.resolve_target(name).program, level).program
    snap = snapshot_program(program)
    texts: dict[int, str] = {}  # each assignment rendered once

    def instance(w):
        text = texts.get(id(w.assign))
        if text is None:
            text = texts[id(w.assign)] = w.stmt
        return [text, w.iters, _sig(w.sig), w.reads]

    chains = [
        [cell, [instance(w) for w in chain]]
        for cell, chain in sorted(snap.writes.items())
    ]
    text = json.dumps(chains, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, level",
    [
        pytest.param(
            name, level,
            marks=[pytest.mark.slow] if (name, level) in SLOW else [],
            id=f"{name}/{level}",
        )
        for name in PROGRAMS
        for level in OPT_LEVELS
    ],
)
def test_snapshot_matches_golden(name, level):
    golden = json.loads(GOLDEN.read_text())
    assert snapshot_digest(name, level) == golden[f"{name}/{level}"], (
        f"{name}/{level}: snapshot differs from {GOLDEN.name}"
    )


def write_golden() -> None:
    """Rewrite ``golden_snapshots.json`` from the current snapshots."""
    golden = {
        f"{name}/{level}": snapshot_digest(name, level)
        for name in PROGRAMS
        for level in OPT_LEVELS
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
