"""Baseline comparator tests (SGI-like and McKinley fusion)."""

import numpy as np

from repro.core import compile_variant
from repro.interp import run_program

import fences
from conftest import build


def test_sgi_keeps_top_level_structure():
    variant = fences.compiled("swim", "sgi")
    # the SGI stand-in never fuses across top-level nests
    assert len(variant.program.body) == len(fences.source("swim").body)


def test_sgi_pads_layout():
    sgi = fences.compiled("tomcatv", "sgi").layout({"N": 16})
    noopt = fences.compiled("tomcatv", "noopt").layout({"N": 16})
    assert sgi.total_elems > noopt.total_elems  # padding holes
    sgi.check_bijective()


def test_sgi_fuses_within_a_nest():
    p = build(
        """
        program t
        param N
        real A[N, N], B[N, N]
        for i = 1, N {
          for j = 1, N { A[j, i] = f(A[j, i]) }
          for j = 1, N { B[j, i] = g(A[j, i], B[j, i]) }
        }
        """
    )
    variant = compile_variant(p, "sgi")
    # intra-nest: the two j loops share bounds and need no alignment
    assert variant.program.loop_count() == 2
    ref = run_program(p, {"N": 10})
    out = run_program(variant.program, {"N": 10})
    assert all(np.array_equal(ref[k], out[k]) for k in ref)


def test_mckinley_fuses_only_identical_bounds():
    p = build(
        """
        program t
        param N
        real A[N], B[N], C[N]
        for i = 1, N { A[i] = 1.0 }
        for i = 1, N { B[i] = g(A[i]) }
        for i = 2, N { C[i] = g(B[i]) }
        """
    )
    variant = compile_variant(p, "mckinley")
    # first two fuse (same bounds, forward dep); third has different bounds
    assert variant.program.loop_count() == 2
    ref = run_program(p, {"N": 10})
    out = run_program(variant.program, {"N": 10})
    assert all(np.array_equal(ref[k], out[k]) for k in ref)


def test_mckinley_is_weaker_than_full_fusion():
    mck = fences.compiled("swim", "mckinley")
    full = fences.compiled("swim", "fusion")
    mck_units = mck.fusion_report.levels[0].units_after
    full_units = full.fusion_report.levels[0].units_after
    assert full_units < mck_units
