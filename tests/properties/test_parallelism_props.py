"""Property-based oracle for the static parallelism analyzer.

For randomly generated affine nests — including triangular bounds,
``when`` guards and a sibling inner loop that reuses the index name ``j``
over its own bounds (the shape fusion's peeled boundaries leave) — an
independent brute-force enumerator lists every cross-lane conflicting
iteration pair of each loop axis.  The analyzer's verdicts must agree:

* every verdict is exact: triangular bounds and guards leave a hull the
  analyzer solves over, and a hull witness is checked against the real
  bounds before it counts;
* ``doall`` is a certificate: the enumerator must find NO conflicting
  pair (soundness — the property that makes parallel execution safe);
* ``serial`` claims a race: the enumerator must find one, and the
  attached witness pair must itself collide.

A case is a *spec* — array extents, bounds, guards and subscripts as
expressions that read the same in the DSL and in Python — rendered to
source for the analyzer and evaluated directly by the oracle.  Both
sides linearize subscripts column-major with the same strides, so
element identity means the same thing on each side.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import parse, validate
from repro.static import analyze_parallelism

SHIFT = st.integers(-1, 1)

#: the coefficient of ``j`` in an ``A`` subscript: two references that
#: read ``j`` with different coefficients meet over a triangle of lanes
J_COEFF = st.integers(1, 2)

#: bounds of the sibling ``j`` loop: one-trip, boundary, empty or full
SIBLING_BOUND = st.sampled_from(["2", "3", "N - 1"])

PLANE = ("2 * N + 2", "N + 2")


def ref(array: str, *subs: str):
    return (array, subs)


def ref_text(r) -> str:
    return f"{r[0]}[{', '.join(r[1])}]"


def render(spec) -> str:
    """The DSL source of a spec: ``for i { for j {..} [for j {..}] }``."""
    decls = [f"real {a}[{', '.join(ext)}]" for a, ext in spec["arrays"].items()]
    loops = []
    for lo, hi, stmts in spec["loops"]:
        lines = []
        for guard, target, reads in stmts:
            rhs = (
                "1.0" if not reads else ref_text(reads[0]) if len(reads) == 1
                else f"f({', '.join(map(ref_text, reads))})"
            )
            line = f"{ref_text(target)} = {rhs}"
            if guard is not None:
                line = f"when j in [{guard[0]}:{guard[1]}] {{ {line} }}"
            lines.append(f"    {line}")
        loops.append(f"  for j = {lo}, {hi} {{\n" + "\n".join(lines) + "\n  }")
    i_lo, i_hi = spec["i"]
    return "\n".join([
        "program rnd", "param N", *decls, f"for i = {i_lo}, {i_hi} {{",
        *loops, "}",
    ])


def case(spec):
    return validate(parse(render(spec))), spec


@st.composite
def affine_nest(draw):
    """One doubly nested affine kernel plus everything the oracle needs."""
    def a_ref():
        return ref("A", f"{draw(J_COEFF)} * j + {draw(SHIFT)}", f"i + {draw(SHIFT)}")

    guard = ("3", "N - 2") if draw(st.booleans()) else None
    stmts = [(guard, a_ref(), [a_ref(), ref("B", "j", "i")])]
    if draw(st.booleans()):
        stmts.append((None, ref("B", "j", "i"), [a_ref()]))
    loops = [("2", "i" if draw(st.booleans()) else "N - 1", stmts)]
    if draw(st.booleans()):
        bounds = draw(SIBLING_BOUND), draw(SIBLING_BOUND)
        loops.append((*bounds, [(None, a_ref(), [a_ref(), ref("B", "j", "i")])]))
    return case({
        "n": draw(st.integers(6, 9)),
        "arrays": {"A": PLANE, "B": PLANE},
        "i": ("2", "N - 1"),
        "loops": loops,
    })


#: two sibling loops reuse ``j``: only the first, j = 1, carries the race
#: on X; solved over the second one's j = 0 the axis looked DOALL
SIBLINGS = case({
    "n": 8,
    "arrays": {"X": ("N + 2",), "Z": ("N",)},
    "i": ("1", "N"),
    "loops": [
        ("1", "1", [(None, ref("X", "i + j"), [ref("X", "i")])]),
        ("0", "0", [(None, ref("Z", "i"), [])]),
    ],
})


#: sp's fused shape: a ``j`` loop past the array, each statement under
#: its own single-interval guard
GUARDED_TAIL = case({
    "n": 7,
    "arrays": {"A": PLANE, "B": PLANE},
    "i": ("2", "N - 1"),
    "loops": [("1", "N + 6", [
        (("1", "N"), ref("A", "j", "i"), [ref("A", "j", "i - 1"), ref("B", "j", "i")]),
        (("3", "N + 2"), ref("B", "j - 2", "i"), [ref("A", "j - 2", "i")]),
    ])],
})

#: sp's coupled pair ``US[i, j, k]`` / ``US[(i + 1), (j - 1), k]`` under
#: ``[1:N]`` / ``[3:N]``: a witness must sit inside the second guard
COUPLED_GUARDS = case({
    "n": 8,
    "arrays": {"A": PLANE, "B": PLANE},
    "i": ("2", "N - 1"),
    "loops": [("1", "N", [
        (("1", "N"), ref("A", "j", "i"), [ref("B", "j", "i")]),
        (("3", "N"), ref("B", "j", "i"), [ref("A", "j - 1", "i + 1")]),
    ])],
})


def oracle_accesses(spec):
    """(i, loop, j) -> [(array, element, is_write)] exactly as executed."""
    n = spec["n"]

    def ev(text: str, **env: int) -> int:
        return eval(text, {}, {"N": n, **env})

    strides = {}
    for array, extents in spec["arrays"].items():
        strides[array], step = [], 1
        for extent in extents:  # column-major: first subscript stride 1
            strides[array].append(step)
            step *= ev(extent)

    def elem(r, env):
        array, subs = r
        return array, sum(
            (ev(s, **env) - 1) * stride for s, stride in zip(subs, strides[array])
        )

    out = {}
    for i in range(ev(spec["i"][0]), ev(spec["i"][1]) + 1):
        for loop, (lo, hi, stmts) in enumerate(spec["loops"]):
            for j in range(ev(lo, i=i), ev(hi, i=i) + 1):
                env = {"i": i, "j": j}
                accs = []
                for guard, target, reads in stmts:
                    if guard is None or ev(guard[0]) <= j <= ev(guard[1]):
                        accs += [(*elem(r, env), False) for r in reads]
                        accs.append((*elem(target, env), True))
                out[(i, loop, j)] = accs
    return out


def conflicting_pairs(accesses, loop=None):
    """Iteration pairs whose accesses collide (>= one write): of the ``i``
    axis when ``loop`` is None, else of the ``j`` axis of that loop."""
    pairs = []
    items = list(accesses.items())
    for idx, ((i1, k1, j1), a1) in enumerate(items):
        for (i2, k2, j2), a2 in items[idx + 1:]:
            if loop is None:
                if i1 == i2:
                    continue
            elif not (i1 == i2 and k1 == k2 == loop and j1 != j2):
                continue
            for arr1, e1, w1 in a1:
                for arr2, e2, w2 in a2:
                    if arr1 == arr2 and e1 == e2 and (w1 or w2):
                        pairs.append(((i1, k1, j1), (i2, k2, j2)))
    return pairs


@given(affine_nest())
@example(SIBLINGS)
@example(GUARDED_TAIL)
@example(COUPLED_GUARDS)
@settings(max_examples=60, deadline=None)
def test_verdicts_match_brute_force(case):
    program, spec = case
    profile = analyze_parallelism(program, {"N": spec["n"]})
    accesses = oracle_accesses(spec)
    # pre-order: the i axis, then each j loop in source order
    axes = [None, *range(len(spec["loops"]))]
    assert [v.path for v in profile.verdicts] == [
        ("i",), *[("i", "j")] * len(spec["loops"])
    ]
    for loop, v in zip(axes, profile.verdicts):
        assert v.verdict in ("doall", "serial") and v.exact, (
            f"axis {v.path}: unexpected verdict {v.verdict!r} ({v.reason})"
        )
        conflicts = conflicting_pairs(accesses, loop)
        if v.verdict == "doall":
            assert conflicts == [], (
                f"UNSOUND: axis {v.path} (loop {loop}) certified DOALL but "
                f"iterations {conflicts[0]} race ({spec})"
            )
        else:
            assert conflicts, (
                f"axis {v.path} (loop {loop}) called serial but brute force "
                f"finds no conflict ({spec})"
            )


@given(affine_nest())
@example(GUARDED_TAIL)
@example(COUPLED_GUARDS)
@settings(max_examples=60, deadline=None)
def test_exact_witnesses_replay(case):
    """An exact witness names two iterations that really collide."""
    program, spec = case
    profile = analyze_parallelism(program, {"N": spec["n"]})
    accesses = oracle_accesses(spec)

    def touched(env, array):
        at = (env["i"], env.get("j"))
        return {
            e
            for (i, _, j), accs in accesses.items() if (i, j) == at
            for arr, e, _ in accs if arr == array
        }

    for v in profile.races:
        w = v.witness
        if w is None or not w.exact:
            continue
        env_a, env_b = dict(w.env_a), dict(w.env_b)
        touched_a = touched(env_a, w.array)
        touched_b = touched(env_b, w.array)
        assert touched_a and touched_b, (
            f"witness iterations {env_a} / {env_b} outside the space ({spec})"
        )
        assert touched_a & touched_b, (
            f"witness pair {env_a} vs {env_b} never touches a common "
            f"{w.array} element ({spec})"
        )
