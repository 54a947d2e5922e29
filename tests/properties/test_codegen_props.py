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
from repro.interp import trace_program as interp_trace
from repro.lang import parse, validate
from repro.stream import AddressStream

PARAMS = {"N": 9}


@st.composite
def subscript(draw, indices):
    """An affine subscript guaranteed in [1, N+4] for 1 <= idx <= N+1."""
    idx = draw(st.sampled_from(indices))
    offset = draw(st.integers(0, 3))
    return f"{idx} + {offset}" if offset else idx


@st.composite
def rvalue(draw, indices, depth=0):
    arrays_1d = ["A", "B"]
    kind = draw(st.sampled_from(
        ["ref", "ref", "const", "call", "binop"] if depth < 2 else
        ["ref", "const"]
    ))
    if kind == "ref":
        arr = draw(st.sampled_from(arrays_1d + ["C", "C+"]))
        if arr == "C+":
            # out of range in its first dimension, in range as a flat
            # element: C[N+5, j] is C[1, j+1]
            return f"C[N + 5, {draw(st.sampled_from(indices))}]"
        if arr == "C":
            return (
                f"C[{draw(subscript(indices))}, {draw(subscript(indices))}]"
            )
        return f"{arr}[{draw(subscript(indices))}]"
    if kind == "const":
        return str(draw(st.sampled_from(["0.5", "1.0", "2.0", "3.0"])))
    if kind == "call":
        fn = draw(st.sampled_from(["f", "g", "sqrt", "abs", "sin"]))
        return f"{fn}({draw(rvalue(indices, depth + 1))})"
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(rvalue(indices, depth + 1))
    right = draw(rvalue(indices, depth + 1))
    return f"({left} {op} {right})"


@st.composite
def assignment(draw, indices):
    arr = draw(st.sampled_from(["A", "B", "C"]))
    if arr == "C":
        target = f"C[{draw(subscript(indices))}, {draw(subscript(indices))}]"
    else:
        target = f"{arr}[{draw(subscript(indices))}]"
    return f"{target} = {draw(rvalue(indices))}"


@st.composite
def nest(draw):
    lines = []
    lo = draw(st.integers(1, 2))
    hi = draw(st.sampled_from(["N", "N - 1", "N + 1"]))
    lines.append(f"for i = {lo}, {hi} {{")
    indices = ["i"]
    inner = draw(st.booleans())
    if inner:
        jlo, jhi = draw(st.sampled_from(
            [("1", "N"), ("1", "i"), ("i", "N"), ("2", "i")]
        ))
        lines.append(f"  for j = {jlo}, {jhi} {{")
        indices = ["i", "j"]
    guarded = draw(st.booleans())
    if guarded:
        gidx = draw(st.sampled_from(indices))
        glo = draw(st.sampled_from(["1", "2", "3"]))
        ghi = draw(st.sampled_from(["N", "N - 1", "N - 2"]))
        lines.append(f"    when {gidx} in [{glo}:{ghi}] {{")
    for _ in range(draw(st.integers(1, 3))):
        lines.append("      " + draw(assignment(indices)))
    if guarded:
        lines.append("    }")
    if inner:
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


@st.composite
def random_programs(draw):
    nests = [draw(nest()) for _ in range(draw(st.integers(1, 3)))]
    source = (
        "program rand\n"
        "param N\n"
        "real A[N + 4], B[N + 4], C[N + 4, N + 4]\n"
        + "\n".join(nests)
    )
    return validate(parse(source))


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
    segments = NestTracer(program, PARAMS).address_segments(2, layout)
    out = AddressStream.concat(list(segments))
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
        list(NestTracer(program, PARAMS).address_segments(1, layout))
    ).addresses[0::2]
    # C[N+5, j] reads the first element of column j + 1
    j = np.arange(1, PARAMS["N"] + 1)
    assert np.array_equal(spill, (3 + j * 2 * extent) * 8)
