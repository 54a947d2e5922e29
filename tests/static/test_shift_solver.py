"""The group-reuse shift solver against the reference-pair oracle.

:func:`solve_delta` below is the solver as it was before references were
normalised: it pairs two :class:`~repro.static.StaticRef` objects,
refuses any pair whose subscripts differ by more than a constant, and
solves the per-dimension system over ``Affine`` differences.  The
attributor now asks :func:`~repro.static.solve_shift` the normalised
question (:func:`~repro.static.shift_question`) for pairs of one
uniformly generated set only; on random programs both must agree on
every ordered pair of one nest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import Affine
from repro.static import StaticRef, build_model, shift_question, solve_shift
from repro.static.reuse import shared_depth

from conftest import build


def _const_offset(form: Affine) -> Optional[int | Fraction]:
    """The value of ``form`` if it is a pure constant, else None."""
    if form.coeffs:
        return None
    return form.const


def solve_delta(src: StaticRef, sink: StaticRef) -> Optional[tuple[int, ...]]:
    """Iteration shift ``delta`` with ``src(i - delta) == sink(i)``, from
    the two references themselves (identical scope indices, per-dimension
    equal coefficients on indices and parameters), or None."""
    indices = sink.scope_indices()
    if src.scope_indices() != indices or src.array != sink.array:
        return None
    if len(src.subs) != len(sink.subs):
        return None
    # per-dim: sum_l c[d][l] * delta[l] == -k[d]
    rows: list[tuple[tuple[int | Fraction, ...], int | Fraction]] = []
    for s_sub, k_sub in zip(src.subs, sink.subs):
        k = _const_offset(k_sub - s_sub)
        if k is None:
            return None
        rows.append((tuple(s_sub.coeff(ix) for ix in indices), k))
    delta: list[Optional[Fraction]] = [None] * len(indices)
    changed = True
    while changed:
        changed = False
        for coeffs, k in rows:
            unknown = [
                l for l, c in enumerate(coeffs) if c != 0 and delta[l] is None
            ]
            if len(unknown) == 1:
                l = unknown[0]
                acc = sum(
                    c * delta[j] for j, c in enumerate(coeffs)
                    if c != 0 and j != l
                )
                delta[l] = Fraction(-k - acc, coeffs[l])
                changed = True
    out = [0 if d is None else d for d in delta]
    for coeffs, k in rows:
        if sum(c * out[l] for l, c in enumerate(coeffs) if c != 0) != -k:
            return None
    if any(d.denominator != 1 for d in out):
        return None
    shift = [int(d) for d in out]
    depth = shared_depth(src, sink)
    if all(s == 0 for s in shift[:depth]) and src.pos >= sink.pos:
        free = [
            l for l in range(depth)
            if all(sub.coeff(indices[l]) == 0 for sub in src.subs)
        ]
        if not free:
            return None
        shift[max(free)] = 1
    for s in shift[:depth]:
        if s > 0:
            break
        if s < 0:
            return None
    else:
        if src.pos >= sink.pos:
            return None
    return tuple(shift)


def solved(src: StaticRef, sink: StaticRef) -> Optional[tuple[int, ...]]:
    """The attributor's path: the solver only within a uniformly
    generated set, no shift outside it."""
    if src.uniform != sink.uniform:
        return None
    return solve_shift(*shift_question(src, sink))


INDICES = ("i", "j", "k")


def _form(coeffs, param, const) -> str:
    text = str(const)
    for name, c in list(zip(INDICES, coeffs)) + [param]:
        if c:
            text += f" {'+' if c > 0 else '-'} {abs(c)} * {name}"
    return text


@st.composite
def programs(draw):
    """One nest of 1-3 loops whose innermost ``shared`` levels may split
    into two fused sibling subtrees over the same index names; 2-4
    statements of one array with 1-3 subscripts, coefficients in
    {-1, 0, 1, 2}, parameter terms, and offsets on a few shared linear
    parts so that many pairs are uniformly generated."""
    levels = draw(st.integers(1, 3))
    dims = draw(st.integers(1, 3))
    shared = draw(st.integers(1, levels))
    coeff = st.sampled_from([-1, 0, 1, 2])
    linear = st.tuples(
        st.tuples(*[coeff] * levels),
        st.tuples(st.sampled_from(["N", "M"]), st.sampled_from([0, 0, 1])),
    )
    parts = draw(st.lists(st.lists(linear, min_size=dims, max_size=dims),
                          min_size=1, max_size=2))

    def ref():
        part = draw(st.sampled_from(parts))
        return "A[" + ", ".join(
            _form(c, p, draw(st.integers(-3, 3))) for c, p in part
        ) + "]"

    def stmts(count):
        return "\n".join(f"{ref()} = f({ref()}, {ref()})" for _ in range(count))

    def loops(names, body):
        for name in reversed(names):
            body = f"for {name} = 4, N {{\n{body}\n}}"
        return body

    inner = INDICES[shared:levels]
    if inner and draw(st.booleans()):
        body = loops(inner, stmts(draw(st.integers(1, 2))))
        body += "\n" + loops(inner, stmts(draw(st.integers(1, 2))))
    else:
        body = loops(inner, stmts(draw(st.integers(2, 4))))
    return f"""
program t
param N, M
real A[{", ".join(["8 * N + 8 * M"] * dims)}]
{loops(INDICES[:shared], body)}
"""


@settings(max_examples=200, deadline=None)
@given(programs())
def test_solver_matches_reference_pair_oracle(source):
    model = build_model(build(source))
    for nest in model.nests:
        for sink in nest:
            for src in nest:
                assert solved(src, sink) == solve_delta(src, sink), (
                    source, src.text, sink.text,
                )
