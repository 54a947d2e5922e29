"""Differential tests: transformed variants are bit-identical to originals.

The fused/aligned/embedded variants of the paper's applications must
produce exactly the interpreter output of the unoptimized programs —
the dynamic counterpart of the static legality certificates.
"""

import numpy as np
import pytest

import fences
from conftest import resolve_slice

APPS = ("adi", "swim", "tomcatv")
LEVELS = ("fusion1", "fusion", "new")

SMALL_SIZES = (8, 11)


def _outputs(program, params, steps):
    from repro.interp import run_program

    return run_program(program, params, steps=steps)


def _compare(reference, variant_program, params, steps):
    out = _outputs(variant_program, params, steps)
    decls = {d.name: d for d in variant_program.arrays}
    for name, data in out.items():
        decl = decls[name]
        if decl.origin_slice is not None:
            expected = resolve_slice(reference, decl.origin_slice)
        else:
            expected = reference[name]
        assert np.array_equal(expected, data), (
            f"{variant_program.name}: array {name} differs"
        )


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("app", APPS)
def test_variants_bit_identical(app, level):
    original, variant = fences.source(app), fences.compiled(app, level).program
    steps = min(fences.steps(app), 2)
    for n in SMALL_SIZES:
        params = {name: n for name in original.params}
        reference = _outputs(original, params, steps)
        _compare(reference, variant, params, steps)


@pytest.mark.parametrize("app", APPS)
def test_multiple_steps_stay_identical(app):
    # cross-step dependences: two body repetitions, fused vs original
    original, variant = fences.source(app), fences.compiled(app, "fusion").program
    params = {name: 8 for name in original.params}
    reference = _outputs(original, params, steps=3)
    _compare(reference, variant, params, steps=3)
