"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.lang import Loop, Program, parse, validate
from repro.interp import run_program
from repro.programs import registry
from repro.verify import Snapshot


def build(source: str) -> Program:
    """Parse + validate a DSL snippet."""
    return validate(parse(source))


def assert_same_semantics(
    original: Program,
    transformed: Program,
    sizes=(8, 11, 16),
    steps: int = 1,
    param: str = "N",
) -> None:
    """Bit-exact output equality across several input sizes.

    Split arrays are compared against the matching slice of the original.
    """
    validate(transformed)
    for n in sizes:
        ref = run_program(original, {param: n}, steps=steps)
        out = run_program(transformed, {param: n}, steps=steps)
        for name, data in ref.items():
            if name in out:
                assert np.array_equal(data, out[name]), (
                    f"array {name} differs at {param}={n}"
                )
            else:
                for decl in transformed.arrays:
                    if decl.origin == name and decl.origin_slice is not None:
                        expected = resolve_slice(ref, decl.origin_slice)
                        assert np.array_equal(expected, out[decl.name]), (
                            f"slice {decl.name} of {name} differs at {param}={n}"
                        )


def resolve_slice(ref: dict, origin) -> np.ndarray:
    """Apply a (possibly chained) SliceOrigin to the original array data."""
    chain = []
    step = origin
    while step is not None:
        chain.append(step)
        step = step.parent
    data = ref[chain[-1].name]
    for step in reversed(chain):
        data = np.take(data, step.index - 1, axis=step.dim)
    return data


#: loop/guard shapes ``(a, b, c, d, orelse)`` for :func:`guard_source`:
#: the probe whose guard is looser than its loop above, then a seeded
#: sample of every offset combination with and without an else body
GUARD_SHAPES = [(0, 1, 0, 0, True)] + random.Random(0).sample(
    [(*offsets, orelse)
     for offsets in itertools.product(range(4), repeat=4)
     for orelse in (False, True)],
    12,
)


def guard_source(
    a: int, b: int, c: int, d: int, orelse: bool, stmt: str = "A[i] = f(B[i])"
) -> str:
    """``for i = 1 + a, N - b`` around ``when i in [1 + c : N - d]
    { stmt }``, and ``else { C[i] = g(B[i]) }`` when ``orelse``."""
    other = " else { C[i] = g(B[i]) }" if orelse else ""
    return f"""
        program shape
        param N
        real A[N], B[N], C[N]
        for i = {1 + a}, N - {b} {{
          when i in [{1 + c} : N - {d}] {{ {stmt} }}{other}
        }}
        """


#: a guard bound over an enclosing index: ``k - 5 < 1`` for every ``k``
#: of its loop, so the guard leaves ``i`` its loop's ``[1, N]``
ENCLOSING_GUARD = """
    program enclosing
    param N
    real A[N, 3], B[N, 3]
    for k = 1, 3 { for i = 1, N { when i in [k - 5 : N] { A[i, k] = f(B[i, k]) } } }
    """


# -- random affine programs ---------------------------------------------------
# rectangular and triangular bounds, guards, 1-D and 2-D arrays, opaque
# functions and vectorizable builtins: the shapes nobody thought to write
# down, for the suites that fuzz a chain against its oracle


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


def round_robin_order(lengths, block: int = 1) -> list[tuple[int, int, int]]:
    """Reference round-robin drain, one Python step per run: ``(stream,
    start, stop)`` runs of up to ``block`` accesses; streams drop out as
    they drain.  This was ``repro.static.schedule.round_robin_order``
    until the merge went closed-form; it stays here, verbatim, as the
    oracle ``round_robin_positions`` and the interleaver are checked
    against."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    runs: list[tuple[int, int, int]] = []
    pos = [0] * len(lengths)
    total = sum(lengths)
    filled = 0
    while filled < total:
        for k, n in enumerate(lengths):
            p = pos[k]
            if p >= n:
                continue
            q = min(p + block, n)
            runs.append((k, p, q))
            filled += q - p
            pos[k] = q
    return runs


def drain_positions(lengths, block: int = 1) -> list[list[int]]:
    """Merged position of every access of every stream under the
    reference drain (what ``round_robin_positions`` must equal)."""
    positions: list[list[int]] = [[] for _ in lengths]
    filled = 0
    for k, p, q in round_robin_order(lengths, block):
        positions[k].extend(range(filled, filled + q - p))
        filled += q - p
    return positions


def live_snapshots() -> int:
    """Dependence snapshots alive right now — the pass manager's only
    large state, so the tests that bound its lifetime count them."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Snapshot))


def reverse_first_loops(program: Program, ctx=None) -> Program:
    """An illegal pass body: swap the first two top-level loop nests,
    reversing every dependence between them."""
    body = list(program.body)
    first, second = [i for i, s in enumerate(body) if isinstance(s, Loop)][:2]
    body[first], body[second] = body[second], body[first]
    return program.with_body(tuple(body))


@pytest.fixture
def fresh_programs():
    """Registry names resolve to programs no earlier test has compiled.

    The pass trie lives on the ``Program`` object and a registry name is
    one object per process, so a test that counts executed passes
    (``pm.pass.*``, pass spans, ``analysis.cache.*``) would otherwise
    depend on which tests ran before it.  Dropping the registry's
    programs is the whole reset: their tries go with them.
    """
    registry._bundled.cache_clear()


@pytest.fixture
def fig4a_program() -> Program:
    """The paper's Fig. 4(a) input."""
    return build(
        """
        program fig4a
        param N
        real A[N], B[N]
        for i = 3, N - 2 { A[i] = f(A[i - 1]) }
        A[1] = A[N]
        A[2] = 0.0
        for i = 3, N { B[i] = g(A[i - 2]) }
        """
    )


@pytest.fixture
def fig4b_program() -> Program:
    """The paper's Fig. 4(b): loops that cannot be fused."""
    return build(
        """
        program fig4b
        param N
        real A[N]
        for i = 2, N { A[i] = f(A[i - 1]) }
        A[1] = A[N]
        for i = 2, N { A[i] = f(A[i - 1]) }
        """
    )


@pytest.fixture
def fig7_program() -> Program:
    """The paper's Fig. 7 multi-level regrouping example."""
    return build(
        """
        program fig7
        param N
        real A[N, N], B[N, N], C[N, N]
        for i = 1, N {
          for j = 1, N { A[j, i] = g(A[j, i], B[j, i]) }
          for j = 1, N { C[j, i] = t(C[j, i]) }
        }
        """
    )


@pytest.fixture
def stencil_2d() -> Program:
    """A pair of fusible 2-D stencil nests."""
    return build(
        """
        program stencil
        param N
        real A[N, N], B[N, N], C[N, N]
        for i = 1, N {
          for j = 2, N { A[j, i] = f(A[j - 1, i], B[j, i]) }
        }
        for i = 1, N {
          for j = 2, N - 1 { C[j, i] = g(A[j, i], A[j + 1, i]) }
        }
        """
    )
