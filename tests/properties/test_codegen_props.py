"""Property-based oracle suite for the codegen backend.

Random affine loop nests — rectangular and triangular bounds, guards,
1-D and 2-D arrays, opaque functions and vectorizable builtins — must
trace **bit-for-bit identically** through ``repro.codegen`` and the
interpreter.  This is the fuzzing counterpart
of the pinned 42-variant differential suite under ``tests/codegen/``:
the study programs cover the shapes the paper needs, the random nests
cover the shapes nobody thought to write down.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import trace_program as codegen_trace
from repro.interp import trace_program as interp_trace
from repro.lang import parse, validate

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
        arr = draw(st.sampled_from(arrays_1d + ["C"]))
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
