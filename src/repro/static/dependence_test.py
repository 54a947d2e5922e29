"""The interval + gcd lane-distance dependence test (shared core).

One question underlies the static parallelism analyzer: *can two
references touch the same array element from different iterations of a
chosen loop axis?*  Folding concrete parameters into the affine subscripts reduces
it to integer feasibility of

    base + sum(c_k * t_k) = target,    t_k in [lo_k, hi_k]

where the ``t_k`` range over the surrounding loop variables (outer
variables contribute one shared term, inner variables two independent
copies) and ``target`` encodes the lane distance along the axis.

Two precision tiers live here:

:func:`attainable`
    the *necessary* interval + gcd screen — cheap and conservative
    (``True`` means "maybe");
:func:`solve_sum`
    an *exact* bounded-backtracking solver over the same equations.  It
    walks candidate values for one term at a time, stepping only through
    the arithmetic progression a linear-congruence solve admits, and
    prunes with the suffix interval + gcd screen.  It either returns a
    concrete solution (the raw material of a race *witness*), proves
    infeasibility, or runs out of budget — the three-way answer the
    parallelism analyzer needs to keep its verdicts honest.

:func:`lane_conflict` packages the conservative decision procedure
over these primitives: the parallelism analyzer's cheap screen before
the exact solve (pinned by ``tests/static/test_dependence_test.py``).

This module is deliberately pure (stdlib only).
"""

from __future__ import annotations

from math import gcd
from typing import Mapping, Optional, Sequence

#: cap on lane-distance enumeration in the conservative test; beyond
#: this the test reports a conflict
MAX_DISTANCE_ENUM = 8192

#: default node budget for the exact solver's backtracking search
MAX_SOLVE_NODES = 4096

#: one linear term: (coefficient, inclusive lower bound, inclusive upper)
Term = tuple[int, int, int]


def attainable(target: int, base: int, terms: Sequence[Term]) -> bool:
    """May ``base + sum(c_k * t_k)`` equal ``target``? (necessary tests)

    Interval screen plus gcd divisibility — conservative: ``True`` means
    "maybe", ``False`` is a proof of infeasibility.
    """
    lo = hi = base
    g = 0
    for coeff, vlo, vhi in terms:
        lo += min(coeff * vlo, coeff * vhi)
        hi += max(coeff * vlo, coeff * vhi)
        g = gcd(g, abs(coeff))
    if not lo <= target <= hi:
        return False
    if g == 0:
        return target == base
    return (target - base) % g == 0


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

    if rec(0, target - base):
        return tuple(values), True
    return None, state["proved"]


def lane_conflict(
    kf: int,
    tf: Mapping[str, int],
    kg: int,
    tg: Mapping[str, int],
    axis: str,
    span: int,
    axis_lo: int,
    outer: Mapping[str, tuple[int, int]],
    inner: Mapping[str, tuple[int, int]],
    max_enum: int = MAX_DISTANCE_ENUM,
) -> bool:
    """Can instances on *different* lanes of ``axis`` touch one element?

    ``(kf, tf)`` and ``(kg, tg)`` are the two references' folded
    integer-affine element indices (constant, variable -> coefficient);
    ``inner`` variables iterate independently per lane (two separate
    copies), ``outer`` variables are shared (one difference term), and
    anything unbound is assumed conflicting.  Conservative: ``True``
    means "maybe" (solve exactly), ``False`` is a proof.
    """
    c_f = tf.get(axis, 0)
    c_g = tg.get(axis, 0)
    base = kf - kg
    terms: list[Term] = []

    def add(coeff: int, name: str, is_inner: bool) -> bool:
        rng = inner.get(name) if is_inner else outer.get(name)
        if rng is None:
            return False
        if coeff:
            terms.append((coeff, rng[0], rng[1]))
        return True

    for name in set(tf) | set(tg):
        if name == axis:
            continue
        cf, cg = tf.get(name, 0), tg.get(name, 0)
        if name in inner:
            # independent instances: two separate copies
            if not (add(cf, name, True) and add(-cg, name, True)):
                return True
        elif name in outer:
            if not add(cf - cg, name, False):
                return True
        else:
            return True  # unknown variable: assume conflict

    if c_f != c_g:
        # different axis coefficients: treat both lane values as free
        terms.append((c_f, 0, span))
        terms.append((-c_g, 0, span))
        base += (c_f - c_g) * axis_lo
        return attainable(0, base, terms)

    if c_f == 0:
        return attainable(0, base, terms)
    if span > max_enum:
        return True
    for d in range(-span, span + 1):
        if d and attainable(-c_f * d, base, terms):
            return True
    return False
