"""The exact cross-lane question for one reference pair (shared core).

One question underlies the static parallelism analyzer: *can two
references touch the same array element from different iterations of a
chosen loop axis?*  Folding concrete parameters into the affine subscripts reduces
it to integer feasibility of

    base + sum(c_k * t_k) = target,    t_k in [lo_k, hi_k]

where the ``t_k`` range over the surrounding loop variables and, when the
two references read the axis with one coefficient, the lane distance.
Each reference is a :class:`Side`: its element index and the box of its
own iterations.  :func:`lane_terms` builds the terms of the variables
other than the axis: an outer variable contributes one shared term over
the two sides' common range, an inner one two independent copies, each
over its own side's range.

:func:`solve_sum` is the exact bounded-backtracking solver.  It walks
candidate values for one term at a time, stepping only through the
arithmetic progression a linear-congruence solve admits, and prunes with
the suffix interval + gcd screen.  It yields every solution in search
order (the raw material of a race *witness*) — a search that ends has
found them all — or runs out of budget.  The boxes may be
a hull of the real iteration space: :func:`lane_witness` asks the pair
question through the solver, keeps the first solution the caller's
``admits`` accepts as two real iterations, and keeps the three-way
answer, so the parallelism analyzer's verdicts stay honest (pinned by
``tests/static/test_dependence_test.py``).

This module is deliberately pure (stdlib only).
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

#: default node budget for the exact solver's backtracking search
MAX_SOLVE_NODES = 4096

#: cap on lane distances the witness search tries when the two
#: references read the axis with different coefficients
MAX_WITNESS_DELTAS = 4096

#: one linear term: (coefficient, inclusive lower bound, inclusive upper)
Term = tuple[int, int, int]

#: two colliding instances: each side's values of the axis and of every
#: variable it is bound by
Collision = tuple[dict[str, int], dict[str, int]]


class Side(NamedTuple):
    """One reference of a pair over the box of its own iterations.

    Its element index is ``const + sum(terms[v] * v)``; the axis ranges
    over ``lanes``, each variable enclosing the axis over ``outer`` (the
    two sides share its value) and each variable inside it over
    ``inner`` (its own).
    """

    const: int
    terms: Mapping[str, int]
    lanes: tuple[int, int]
    outer: Mapping[str, tuple[int, int]]
    inner: Mapping[str, tuple[int, int]]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def solve_sum(
    target: int,
    base: int,
    terms: Sequence[Term],
    budget: int = MAX_SOLVE_NODES,
) -> Iterator[Optional[tuple[int, ...]]]:
    """Every solution of ``base + sum(c_k * t_k) == target`` over the boxes.

    Yields the solutions (aligned with ``terms``) in search order; a
    final ``None`` says the search ran out of ``budget`` nodes, so the
    solutions yielded may not be all of them.  A search that ends without
    ``None`` proves there are no others.

    The search fixes terms left to right.  For each term it intersects
    the box with the interval the remaining terms can still absorb, then
    steps only through the residues a linear congruence against the
    suffix gcd allows — so a feasible system is typically solved with no
    backtracking at all, and the budget only matters on adversarial
    gcd interactions.  A zero coefficient steps through its whole box.
    """
    n = len(terms)
    suf_lo = [0] * (n + 1)
    suf_hi = [0] * (n + 1)
    suf_g = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        c, lo, hi = terms[k]
        if lo > hi:
            return  # an empty box: nothing to solve over
        if c < 0:
            lo, hi = hi, lo
        suf_lo[k] = suf_lo[k + 1] + c * lo
        suf_hi[k] = suf_hi[k + 1] + c * hi
        suf_g[k] = gcd(suf_g[k + 1], c)
    goal = target - base
    if not suf_lo[0] <= goal <= suf_hi[0] or (suf_g[0] and goal % suf_g[0]):
        return  # the interval + gcd screen, before any search
    if n == 0:
        yield ()
        return

    def candidates(k: int, rem: int) -> Sequence[int]:
        """The values of term ``k`` that leave ``rem`` within the reach
        of the terms after it."""
        if not suf_lo[k] <= rem <= suf_hi[k]:
            return ()
        if suf_g[k] and rem % suf_g[k]:
            return ()
        c, lo, hi = terms[k]
        if c == 0:
            return range(lo, hi + 1)
        g2 = suf_g[k + 1]
        lo_res = rem - suf_hi[k + 1]  # c*t must land in [lo_res, hi_res]
        hi_res = rem - suf_lo[k + 1]
        if c > 0:
            t_min = max(lo, _ceil_div(lo_res, c))
            t_max = min(hi, hi_res // c)
        else:
            t_min = max(lo, _ceil_div(hi_res, c))
            t_max = min(hi, lo_res // c)
        if t_min > t_max:
            return ()
        if g2 == 0:
            # the suffix contributes exactly 0: c*t must equal rem
            t = rem // c
            return (t,) if rem % c == 0 and t_min <= t <= t_max else ()
        d = gcd(abs(c), g2)
        if rem % d:
            return ()
        m = g2 // d
        if m <= 1:
            return range(t_min, t_max + 1)
        cm = (c // d) % m
        t0 = (pow(cm, -1, m) * ((rem // d) % m)) % m
        return range(t_min + (t0 - t_min) % m, t_max + 1, m)

    values = [0] * n
    rems = [goal] * (n + 1)
    stack = [iter(candidates(0, goal))]
    nodes = 1
    while stack:
        k = len(stack) - 1
        t = next(stack[k], None)
        if t is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            yield None
            return
        values[k] = t
        rems[k + 1] = rems[k] - terms[k][0] * t
        if k + 1 == n:
            yield tuple(values)  # ``candidates`` left a zero remainder
        else:
            nodes += 1
            stack.append(iter(candidates(k + 1, rems[k + 1])))


def lane_terms(f: Side, g: Side, axis: str) -> Optional[list[tuple[str, str, Term]]]:
    """The terms of ``elem_f - elem_g`` over every variable but ``axis``.

    Entries are ``(side, variable, term)``.  An inner variable iterates
    independently per lane, so it gives a copy per side that binds it
    (side ``"a"`` for ``f``, ``"b"`` for ``g``) over that side's range;
    an outer variable is one shared value, so it gives one difference
    term (side ``"shared"``) over the two sides' common range.  A
    variable neither subscript reads still gets a zero term: its range
    may be empty, and a witness binds it.  Terms that read a variable
    come first, in variable order, then the zero ones.  ``None`` when a
    subscript reads a variable its side does not bind.
    """
    for side in (f, g):
        for name in side.terms:
            if name != axis and name not in side.outer and name not in side.inner:
                return None
    keyed = []
    for name, (lo, hi) in f.outer.items():
        c = f.terms.get(name, 0) - g.terms.get(name, 0)
        g_lo, g_hi = g.outer[name]
        keyed.append((not c, name, "shared", (c, max(lo, g_lo), min(hi, g_hi))))
    for side, own, sign in (("a", f, 1), ("b", g, -1)):
        for name, (lo, hi) in own.inner.items():
            c = sign * own.terms.get(name, 0)
            keyed.append((not c, name, side, (c, lo, hi)))
    keyed.sort()
    return [(side, name, term) for _, name, side, term in keyed]


def _deltas(span: int) -> Iterator[int]:
    """Candidate lane distances, smallest magnitude first: 1,-1,2,-2,...
    (at most :data:`MAX_WITNESS_DELTAS` of them)."""
    for k in range(1, min(span, MAX_WITNESS_DELTAS // 2) + 1):
        yield k
        yield -k


def lane_witness(
    f: Side,
    g: Side,
    axis: str,
    admits: Callable[[dict[str, int], dict[str, int]], bool] = lambda a, b: True,
) -> tuple[Optional[Collision], bool]:
    """Two instances on *different* lanes of ``axis`` touching one element.

    Each side's box may be a hull of its real iterations: a solution is
    a collision only when ``admits`` accepts its two environments.
    Returns ``(collision, proved)``: ``proved`` is ``True`` with a
    collision and with a ``None`` that proves the pair independent,
    ``False`` when a search ran out of budget or a variable is unbound.

    Equal axis coefficients ``c`` make the lane distance ``d = ia - ib``
    one more term ``(±c, ...)``: one search per sign finds the smallest
    ``|d|`` at any span, the positive one on a tie.  Different
    coefficients let the two lanes range over a triangle, which one box
    cannot express: a relaxed search with both lanes free comes first,
    then a walk over lane distances (:func:`_deltas`).  A lane neither
    subscript reads, like every unread variable, steps through its box
    after the others.
    """
    labelled = lane_terms(f, g, axis)
    (a1, b1), (a2, b2) = f.lanes, g.lanes
    if labelled is None:
        return None, False
    if a1 > b1 or a2 > b2:
        return None, True  # a side that never runs
    rest = [term for _, _, term in labelled]
    c_f, c_g = f.terms.get(axis, 0), g.terms.get(axis, 0)
    base = f.const - g.const

    def search(base, lead, trail, lanes, budget=MAX_SOLVE_NODES, distinct=True):
        """The first solution over ``lead + rest + trail`` whose lanes
        (``lanes`` of its lead and trail values) lie in the sides' boxes,
        differ unless ``distinct`` is off, and that ``admits``."""
        k, m = len(lead), len(lead) + len(rest)
        for sol in solve_sum(0, base, [*lead, *rest, *trail], budget):
            if sol is None:
                return None, False
            ia, ib = lanes(sol[:k] + sol[m:])
            if not (a1 <= ia <= b1 and a2 <= ib <= b2) or (distinct and ia == ib):
                continue
            at_a, at_b = {axis: ia}, {axis: ib}
            for (side, var, _), v in zip(labelled, sol[k:m]):
                if side != "b":
                    at_a[var] = v
                if side != "a":
                    at_b[var] = v
            if admits(at_a, at_b):
                return (at_a, at_b), True
        return None, True

    if c_f == c_g == 0:
        return search(base, [], [(0, a1, b1), (0, a2, b2)], lambda v: v)

    def gap(found: Collision) -> int:
        return abs(found[0][axis] - found[1][axis])

    if c_f == c_g:
        # ia > ib steps through ib, ia < ib through ia: the lower lane
        best, proved_all = None, True
        for lead, trail, lanes in (
            ((c_f, max(1, a1 - b2), b1 - a2), (0, a2, b2),
             lambda v: (v[1] + v[0], v[1])),
            ((-c_f, max(1, a2 - b1), b2 - a1), (0, a1, b1),
             lambda v: (v[1], v[1] + v[0])),
        ):
            found, proved = search(base, [lead], [trail], lanes)
            proved_all = proved_all and proved
            if found is not None and (best is None or gap(found) < gap(best)):
                best = found
        return (best, True) if best is not None else (None, proved_all)

    lane_f, lane_g = (c_f, a1, b1), (-c_g, a2, b2)
    if not c_g:
        return search(base, [lane_f], [lane_g], lambda v: v)
    if not c_f:
        return search(base, [lane_g], [lane_f], lambda v: (v[1], v[0]))
    # both subscripts read the axis: a relaxed search with distinctness
    # dropped comes first.  None => proof of independence (the relaxation
    # only adds solutions); distinct lanes are a witness.
    found, proved = search(base, [lane_f, lane_g], [], lambda v: v, distinct=False)
    if found is None or gap(found):
        return found, proved

    # every relaxed solution may land on ia == ib; substitute
    # ib = ia - delta and walk lane distances, smallest first.  A few
    # budget-exhausted searches in a row abort the refinement (inexact).
    span = max(b1 - a2, b2 - a1)
    strikes = 0
    proved_all = span <= MAX_WITNESS_DELTAS // 2
    for delta in _deltas(span):
        ia_lo, ia_hi = max(a1, a2 + delta), min(b1, b2 + delta)
        if ia_lo > ia_hi:
            continue
        found, proved = search(
            base + c_g * delta, [(c_f - c_g, ia_lo, ia_hi)], [],
            lambda v, d=delta: (v[0], v[0] - d), budget=512,
        )
        if found is not None:
            return found, True
        if not proved:
            proved_all = False
            strikes += 1
            if strikes >= 8:
                return None, False
    return None, proved_all
