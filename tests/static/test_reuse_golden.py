"""Golden static reuse profiles: every program x level, pinned by digest.

``golden_reuse_profiles.json`` holds the sha256 of
``analyze_program(variant, steps).to_json()`` for the 42 variants of
the five registry programs and fft (at n=64), each at its registry step
count, so "the profile is unchanged" holds across commits, not only
within one.  Variants whose analysis costs about a second or more run
under the ``slow`` marker.

``PYTHONPATH=src python tests/static/test_reuse_golden.py`` rewrites the
file — only for an intended change to the profile, listed in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import OPT_LEVELS, compile_variant
from repro.programs import registry
from repro.static import analyze_program

GOLDEN = Path(__file__).with_name("golden_reuse_profiles.json")

PROGRAMS = ("adi", "fft", "sp", "sweep3d", "swim", "tomcatv")

#: variants whose analysis takes about a second or more
SLOW = {("sp", "fusion1"), ("sp", "fusion"), ("sp", "new")}


def profile_digest(name: str, level: str) -> str:
    """The digest of one variant's profile; ``resolve_target`` builds each
    program once per process (fft at n=64), so its levels share one pass
    trie, and supplies the registry step count."""
    target = registry.resolve_target(name)
    program = compile_variant(target.program, level).program
    payload = analyze_program(program, steps=target.steps).to_json()
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


VARIANTS = [
    pytest.param(
        name, level,
        marks=[pytest.mark.slow] if (name, level) in SLOW else [],
        id=f"{name}/{level}",
    )
    for name in PROGRAMS
    for level in OPT_LEVELS
]


@pytest.mark.parametrize("name, level", VARIANTS)
def test_profile_matches_golden(name, level):
    golden = json.loads(GOLDEN.read_text())
    assert profile_digest(name, level) == golden[f"{name}/{level}"], (
        f"{name}/{level}: static reuse profile differs from {GOLDEN.name}"
    )


def write_golden() -> None:
    """Rewrite ``golden_reuse_profiles.json`` from the current analysis."""
    golden = {
        f"{name}/{level}": profile_digest(name, level)
        for name in PROGRAMS
        for level in OPT_LEVELS
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
