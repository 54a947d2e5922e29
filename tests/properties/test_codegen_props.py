"""Property-based oracle suite for the codegen backend.

Random affine loop nests — rectangular and triangular bounds, guards,
1-D and 2-D arrays, opaque functions and vectorizable builtins — must
trace **bit-for-bit identically** through ``repro.codegen`` and the
interpreter.  This is the fuzzing counterpart
of the pinned 42-variant differential suite under ``tests/codegen/``:
the study programs cover the shapes the paper needs, the random nests
cover the shapes nobody thought to write down.

Under random per-array placements the same nests must lay out through
the codegen tracer's folded address records exactly as
``Layout.addresses`` lays out the interpreter's trace.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import trace_program as codegen_trace
from repro.codegen.tracer import NestTracer
from repro.core.regroup.layout import ArrayPlacement, Layout
from repro.harness import TimeSteps
from repro.interp import trace_program as interp_trace
from repro.lang import parse, validate
from repro.stream import AddressStream

from conftest import random_programs

PARAMS = {"N": 9}


@given(random_programs())
@settings(max_examples=75, deadline=None)
def test_traces_bit_identical(program):
    ref = interp_trace(program, PARAMS, steps=2)
    out = codegen_trace(program, PARAMS, steps=2)
    assert len(ref) == len(out)
    for field in ("array_ids", "elems", "writes", "ref_ids"):
        assert np.array_equal(getattr(ref, field), getattr(out, field)), field


@st.composite
def layouts(draw, program):
    """A random placement per array, back to back: default, padded,
    element-interleaved (stride 2 at an odd or even offset, the partner's
    slots left free) or, for 2-D arrays, column-regrouped (every column
    followed by a partner's, one stride break)."""
    placements, base = {}, 0
    for decl in program.arrays:
        shape = decl.shape(PARAMS)
        kinds = ["default", "padded", "interleaved"] + ["column"] * (len(shape) > 1)
        kind = draw(st.sampled_from(kinds))
        strides = (1, shape[0])[: len(shape)]
        offset = base + draw(st.integers(1, 9)) * (kind == "padded")
        if kind == "interleaved":
            strides = tuple(2 * s for s in strides)
            offset += draw(st.integers(0, 1))
        elif kind == "column":
            strides = (1, 2 * shape[0])
        placements[decl.name] = ArrayPlacement(
            decl.name, shape, offset, strides, decl.elem_size
        )
        base = offset + 2 * math.prod(shape)
    return Layout(placements, base, "random")


@given(random_programs(), st.data())
@settings(max_examples=60, deadline=None)
def test_address_segments_equal_layout_addresses(program, data):
    """The codegen tracer's folded address records against the oracle:
    ``Layout.addresses`` over the interpreter's trace."""
    layout = data.draw(layouts(program))
    _assert_laid_out_alike(program, layout)


def _assert_laid_out_alike(program, layout):
    ref = interp_trace(program, PARAMS, steps=2)
    tracer = NestTracer(program, PARAMS)
    steps = TimeSteps(lambda: tracer.address_segments(layout), 2)
    out = AddressStream.concat([chunk for chunk, _ in steps])
    assert np.array_equal(out.addresses, layout.addresses(ref))
    assert np.array_equal(out.writes, ref.writes)
    assert np.array_equal(out.ref_ids, ref.ref_ids)


def test_a_subscript_past_its_dimension_maps_through_the_divmod():
    """``C[N + 5, j]`` is in range only as a flat element; under a
    column-regrouped placement it lands on ``C[1, j + 1]``."""
    program = validate(parse(
        "program spill\nparam N\nreal C[N + 4, N + 4]\n"
        "for j = 1, N { C[1, j] = C[N + 5, j] }"
    ))
    extent = PARAMS["N"] + 4
    layout = Layout(
        {"C": ArrayPlacement("C", (extent, extent), 3, (1, 2 * extent))},
        3 + 2 * extent * extent,
    )
    assert layout.divmods(["C"]) == 1
    _assert_laid_out_alike(program, layout)
    spill = AddressStream.concat(
        list(NestTracer(program, PARAMS).address_segments(layout))
    ).addresses[0::2]
    # C[N+5, j] reads the first element of column j + 1
    j = np.arange(1, PARAMS["N"] + 1)
    assert np.array_equal(spill, (3 + j * 2 * extent) * 8)
