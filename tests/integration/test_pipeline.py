"""End-to-end pipeline integration: every app x every level, small sizes.

This is the central guarantee of the whole reproduction: the paper's
optimizations are *transparent* — outputs are bit-identical to the
original program at every optimization level.
"""

import functools

import numpy as np
import pytest

from repro.core import OPT_LEVELS, compile_variant
from repro.interp import run_program
from repro.lang import validate
from repro.programs import APPLICATIONS

import fences
from conftest import resolve_slice

SIZES = {"swim": 11, "tomcatv": 11, "adi": 11, "sp": 9}
STEPS = 2


@functools.cache
def original(name):
    """An app's output, lazily: deselected apps (sp in tier 1) never run."""
    return run_program(fences.source(name), {"N": SIZES[name]}, steps=STEPS)


# mini-SP's 3-D traces make it by far the slowest app here; the full
# sp x level sweep runs in tier 2 (-m slow), with a smoke version below
APP_PARAMS = [
    pytest.param(app, marks=pytest.mark.slow) if app == "sp" else app
    for app in sorted(APPLICATIONS)
]


@pytest.mark.parametrize("level", OPT_LEVELS)
@pytest.mark.parametrize("app", APP_PARAMS)
def test_semantics_preserved(app, level):
    ref = original(app)
    variant = fences.compiled(app, level)
    validate(variant.program)
    out = run_program(variant.program, {"N": SIZES[app]}, steps=STEPS)
    for name, data in ref.items():
        if name in out:
            assert np.array_equal(data, out[name]), f"{app}/{level}: {name}"
        else:
            for decl in variant.program.arrays:
                if decl.origin == name and decl.origin_slice is not None:
                    expected = resolve_slice(ref, decl.origin_slice)
                    assert np.array_equal(expected, out[decl.name]), (
                        f"{app}/{level}: slice {decl.name}"
                    )


def test_semantics_preserved_sp_smoke():
    """Tier-1 stand-in for the slow sp sweep: one size, the combined
    strategy (which exercises the full fusion + regrouping pipeline)."""
    ref = run_program(fences.source("sp"), {"N": 8}, steps=1)
    variant = fences.compiled("sp", "new")
    validate(variant.program)
    out = run_program(variant.program, {"N": 8}, steps=1)
    for name, data in ref.items():
        if name in out:
            assert np.array_equal(data, out[name]), f"sp/new: {name}"


@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_layouts_bijective(app):
    for level in ("noopt", "sgi", "new"):
        fences.compiled(app, level).layout({"N": SIZES[app]}).check_bijective()


def test_new_reduces_l2_misses_on_adi():
    """The headline claim, at test scale: the combined strategy cuts
    memory traffic on ADI."""
    from repro.harness import RunRequest, machine_for, run
    from repro.programs import registry

    entry = registry.get("adi")
    program = validate(entry.build())
    machine = machine_for(entry.machine_spec)
    base, new = run(
        RunRequest(
            program=program, levels=("noopt", "new"), params={"N": 65},
            machine=machine, steps=1,
        )
    ).results
    assert new.stats.l2_misses < base.stats.l2_misses
    assert new.stats.seconds < base.stats.seconds


def test_unknown_level_rejected():
    from repro.lang import TransformError

    program = validate(APPLICATIONS["adi"].build())
    with pytest.raises(TransformError):
        compile_variant(program, "turbo")


def test_stage_bookkeeping():
    variant = fences.compiled("sp", "new")
    assert "preliminary" in variant.stages
    assert "fused" in variant.stages
    assert variant.stages["regrouped"]["merged_arrays"] < variant.stages[
        "preliminary"
    ]["arrays"]
