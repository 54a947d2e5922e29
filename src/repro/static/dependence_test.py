"""The exact cross-lane question for one reference pair (shared core).

One question underlies the static parallelism analyzer: *can two
references touch the same array element from different iterations of a
chosen loop axis?*  Folding concrete parameters into the affine subscripts reduces
it to integer feasibility of

    base + sum(c_k * t_k) = target,    t_k in [lo_k, hi_k]

where the ``t_k`` range over the surrounding loop variables and, when the
two references read the axis with one coefficient, the lane distance.
:func:`lane_terms` builds the terms of the other variables: an outer
variable contributes one shared term, an inner one two independent
copies.

:func:`solve_sum` is the exact bounded-backtracking solver.  It walks
candidate values for one term at a time, stepping only through the
arithmetic progression a linear-congruence solve admits, and prunes with
the suffix interval + gcd screen.  It either returns a concrete solution
(the raw material of a race *witness*), proves infeasibility, or runs out
of budget.  :func:`lane_witness` asks the pair question through it and
keeps that three-way answer, so the parallelism analyzer's verdicts stay
honest (pinned by ``tests/static/test_dependence_test.py``).

This module is deliberately pure (stdlib only).
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Mapping, Optional, Sequence

#: default node budget for the exact solver's backtracking search
MAX_SOLVE_NODES = 4096

#: cap on lane distances the witness search tries when the two
#: references read the axis with different coefficients
MAX_WITNESS_DELTAS = 4096

#: one linear term: (coefficient, inclusive lower bound, inclusive upper)
Term = tuple[int, int, int]

#: two colliding instances: each side's values of the axis and of the
#: variables its subscript reads
Collision = tuple[dict[str, int], dict[str, int]]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def solve_sum(
    target: int,
    base: int,
    terms: Sequence[Term],
    budget: int = MAX_SOLVE_NODES,
) -> tuple[Optional[tuple[int, ...]], bool]:
    """Exactly solve ``base + sum(c_k * t_k) == target`` over the boxes.

    Returns ``(values, proved)``: ``values`` is one solution (aligned
    with ``terms``) or ``None``; ``proved`` is ``True`` when a ``None``
    is a proof of infeasibility rather than an exhausted search budget.

    The search fixes terms left to right.  For each term it intersects
    the box with the interval the remaining terms can still absorb, then
    steps only through the residues a linear congruence against the
    suffix gcd allows — so a feasible system is typically solved with no
    backtracking at all, and the budget only matters on adversarial
    gcd interactions.
    """
    n = len(terms)
    suf_lo = [0] * (n + 1)
    suf_hi = [0] * (n + 1)
    suf_g = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        c, lo, hi = terms[k]
        a, b = c * lo, c * hi
        suf_lo[k] = suf_lo[k + 1] + min(a, b)
        suf_hi[k] = suf_hi[k + 1] + max(a, b)
        suf_g[k] = gcd(suf_g[k + 1], abs(c))
    for _, lo, hi in terms:
        if lo > hi:
            return None, True  # an empty box: nothing to solve over
    goal = target - base
    if not suf_lo[0] <= goal <= suf_hi[0] or (suf_g[0] and goal % suf_g[0]):
        return None, True  # the interval + gcd screen, before any search
    values = [0] * n
    state = {"nodes": 0, "proved": True}

    def rec(k: int, rem: int) -> bool:
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["proved"] = False
            return False
        if not suf_lo[k] <= rem <= suf_hi[k]:
            return False
        g_all = suf_g[k]
        if g_all == 0:
            # every remaining coefficient is zero (or k == n)
            if rem != 0:
                return False
            for j in range(k, n):
                values[j] = terms[j][1]
            return True
        if rem % g_all:
            return False
        c, lo, hi = terms[k]
        if c == 0:
            values[k] = lo
            return rec(k + 1, rem)
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
            return False
        if g2 == 0:
            # the suffix contributes exactly 0: c*t must equal rem
            if rem % c:
                return False
            t = rem // c
            if not t_min <= t <= t_max:
                return False
            candidates: Sequence[int] = (t,)
        else:
            d = gcd(abs(c), g2)
            if rem % d:
                return False
            m = g2 // d
            if m <= 1:
                candidates = range(t_min, t_max + 1)
            else:
                cm = (c // d) % m
                t0 = (pow(cm, -1, m) * ((rem // d) % m)) % m
                start = t_min + (t0 - t_min) % m
                candidates = range(start, t_max + 1, m)
        for t in candidates:
            state["nodes"] += 1
            if state["nodes"] > budget:
                state["proved"] = False
                return False
            values[k] = t
            if rec(k + 1, rem - c * t):
                return True
        return False

    if rec(0, goal):
        return tuple(values), True
    return None, state["proved"]


def lane_terms(
    tf: Mapping[str, int],
    tg: Mapping[str, int],
    axis: str,
    outer: Mapping[str, tuple[int, int]],
    inner: Mapping[str, tuple[int, int]],
) -> Optional[list[tuple[str, str, Term]]]:
    """The terms of ``elem_f - elem_g`` over every variable but ``axis``.

    Entries are ``(side, variable, term)`` in variable order.  An
    ``inner`` variable iterates independently per lane, so it gives two
    copies (side ``"a"`` for ``f``, ``"b"`` for ``g``); an ``outer``
    variable is one shared value, so it gives one difference term (side
    ``"shared"``).  ``None`` when a variable is bound by neither.
    """
    out: list[tuple[str, str, Term]] = []
    for name in sorted(set(tf) | set(tg)):
        if name == axis:
            continue
        cf, cg = tf.get(name, 0), tg.get(name, 0)
        if name in inner:
            lo, hi = inner[name]
            if cf:
                out.append(("a", name, (cf, lo, hi)))
            if cg:
                out.append(("b", name, (-cg, lo, hi)))
        elif name in outer:
            lo, hi = outer[name]
            if cf != cg:
                out.append(("shared", name, (cf - cg, lo, hi)))
        else:
            return None
    return out


def _deltas(span: int) -> Iterator[int]:
    """Candidate lane distances, smallest magnitude first: 1,-1,2,-2,...
    (at most :data:`MAX_WITNESS_DELTAS` of them)."""
    for k in range(1, min(span, MAX_WITNESS_DELTAS // 2) + 1):
        yield k
        yield -k


def lane_witness(
    kf: int,
    tf: Mapping[str, int],
    kg: int,
    tg: Mapping[str, int],
    axis: str,
    span: int,
    axis_lo: int,
    outer: Mapping[str, tuple[int, int]],
    inner: Mapping[str, tuple[int, int]],
) -> tuple[Optional[Collision], bool]:
    """Two instances on *different* lanes of ``axis`` touching one element.

    ``(kf, tf)`` and ``(kg, tg)`` are the two references' folded
    integer-affine element indices (constant, variable -> coefficient),
    the axis ranges over ``[axis_lo, axis_lo + span]`` and the other
    variables are bound as :func:`lane_terms` reads them.  Returns
    ``(collision, proved)``: ``proved`` is ``True`` with a collision and
    with a ``None`` that proves the pair independent, ``False`` when the
    search ran out of budget or a variable is unbound.

    Equal axis coefficients ``c`` make the lane distance ``d = ia - ib``
    one more term ``(±c, 1, span)``: one solve per sign finds the
    smallest ``|d|`` at any span, the positive one on a tie.  Different
    coefficients let the two lanes range over a triangle, which one box
    cannot express: a relaxed solve with both lanes free comes first,
    then a walk over lane distances (:func:`_deltas`).
    """
    labelled = lane_terms(tf, tg, axis, outer, inner)
    if labelled is None:
        return None, False
    shared = [term for _, _, term in labelled]
    c_f, c_g = tf.get(axis, 0), tg.get(axis, 0)
    base = kf - kg
    lo, hi = axis_lo, axis_lo + span

    def collision(values: Sequence[int], ia: int, ib: int) -> tuple[Collision, bool]:
        at_a, at_b = {axis: ia}, {axis: ib}
        for (side, var, _), v in zip(labelled, values):
            if side != "b":
                at_a[var] = v
            if side != "a":
                at_b[var] = v
        return (at_a, at_b), True

    if c_f == c_g == 0:
        sol, proved = solve_sum(0, base, shared)
        return (None, proved) if sol is None else collision(sol, lo, lo + 1)

    if c_f == c_g:
        best, proved_all = None, True
        for sign in (1, -1):
            sol, proved = solve_sum(0, base, [(sign * c_f, 1, span), *shared])
            proved_all = proved_all and proved
            if sol is not None and (best is None or sol[0] < abs(best[0])):
                best = (sign * sol[0], sol[1:])
        if best is None:
            return None, proved_all
        d, values = best
        return collision(values, lo + max(0, d), lo - min(0, d))

    # relaxed solve first: both lane values free, distinctness dropped.
    # Infeasible => proof of independence (the relaxation only adds
    # solutions); a solution with distinct lanes is already a witness.
    relaxed = [(c, lo, hi) for c in (c_f, -c_g) if c]
    sol, proved = solve_sum(0, base, relaxed + shared)
    if sol is None:
        return None, proved
    head, values = sol[: len(relaxed)], sol[len(relaxed):]
    if c_f and c_g:
        ia, ib = head
    elif c_f:
        # g's element is lane-invariant: any other lane for ib works
        ia = head[0]
        ib = lo if ia != lo else lo + 1
    else:
        ib = head[0]
        ia = lo if ib != lo else lo + 1
    if ia != ib:
        return collision(values, ia, ib)

    # every relaxed solve may keep landing on ia == ib; substitute
    # ib = ia - delta and walk lane distances, smallest first.  A few
    # budget-exhausted solves in a row abort the refinement (inexact).
    strikes = 0
    proved_all = True
    enumerated_all = span == 0
    for delta in _deltas(span):
        ia_lo = lo + max(0, delta)
        ia_hi = hi + min(0, delta)
        if ia_lo > ia_hi:
            continue
        terms = [(c_f - c_g, ia_lo, ia_hi), *shared]
        sol, proved = solve_sum(0, base + c_g * delta, terms, budget=512)
        if sol is not None:
            return collision(sol[1:], sol[0], sol[0] - delta)
        if not proved:
            proved_all = False
            strikes += 1
            if strikes >= 8:
                return None, False
        if abs(delta) == span:
            enumerated_all = True
    return None, proved_all and enumerated_all
