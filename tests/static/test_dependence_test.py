"""Unit tests for the exact solver and the cross-lane pair rule.

``solve_sum`` is the exact bounded solver: it yields every solution,
in search order, and brute force finds no other; its first step is the
interval + gcd screen, which the ``attainable`` cases pin.
``lane_witness`` is the pair rule the parallelism analyzer asks: when it
answers with a proof, it reports a collision exactly when direct
enumeration finds one among the pairs ``admits`` accepts, and every
collision it reports is real.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.static.dependence_test import (
    MAX_SOLVE_NODES,
    Side,
    lane_witness,
    solve_sum,
)


def brute_force(target, base, terms):
    """All solutions of base + sum(c*t) == target by enumeration."""
    boxes = [range(lo, hi + 1) for _, lo, hi in terms]
    out = []
    for values in itertools.product(*boxes):
        if base + sum(c * v for (c, _, _), v in zip(terms, values)) == target:
            out.append(values)
    return out


def first(target, base, terms, budget=MAX_SOLVE_NODES):
    """``solve_sum``'s first answer as ``(values, proved)``: a solution,
    a proof that there is none, or ``(None, False)`` for the budget."""
    for values in solve_sum(target, base, terms, budget):
        return values, values is not None
    return None, True


# -- attainable: the screen at solve_sum's root ------------------------------


def attainable(target, base, terms):
    """Does ``solve_sum`` find ``target``?  These systems are tiny, so
    every answer must be a proof."""
    values, proved = first(target, base, terms)
    assert values is not None or proved
    return values is not None


def test_attainable_no_terms():
    assert attainable(5, 5, [])
    assert not attainable(5, 4, [])


def test_attainable_interval_screen():
    # 10 + t, t in [0, 3] covers [10, 13] only
    assert attainable(12, 10, [(1, 0, 3)])
    assert not attainable(14, 10, [(1, 0, 3)])
    assert not attainable(9, 10, [(1, 0, 3)])


def test_attainable_negative_coefficient_interval():
    # -2t for t in [1, 4] covers [-8, -2]
    assert attainable(-4, 0, [(-2, 1, 4)])
    assert not attainable(-1, 0, [(-2, 1, 4)])


def test_attainable_gcd_screen():
    # 4a + 6b has gcd 2: odd targets are infeasible
    terms = [(4, -5, 5), (6, -5, 5)]
    assert not attainable(3, 0, terms)
    assert attainable(2, 0, terms)


def test_attainable_is_necessary_not_sufficient():
    # 2a + 3b + 5c = 4 with a,b,c in [0,1] passes the screen (interval
    # [0, 10], gcd 1) but has no solution.  A one-node budget leaves only
    # the screen: its refusals are proofs, and this target needs the search
    terms = [(2, 0, 1), (3, 0, 1), (5, 0, 1)]
    assert first(11, 0, terms, budget=1) == (None, True)
    assert first(4, 0, terms, budget=1) == (None, False)
    assert first(4, 0, terms) == (None, True)
    assert brute_force(4, 0, terms) == []


@pytest.mark.parametrize("seed", range(20))
def test_attainable_never_rejects_a_real_solution(seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(1, 4)):
        lo = rng.randint(-4, 4)
        hi = lo + rng.randint(0, 5)
        terms.append((rng.randint(-6, 6), lo, hi))
    base = rng.randint(-10, 10)
    values = [rng.randint(lo, hi) for _, lo, hi in terms]
    target = base + sum(c * v for (c, _, _), v in zip(terms, values))
    assert attainable(target, base, terms)


# -- solve_sum ----------------------------------------------------------------


def check_solution(target, base, terms, values):
    assert len(values) == len(terms)
    for (c, lo, hi), v in zip(terms, values):
        assert lo <= v <= hi
    assert base + sum(c * v for (c, _, _), v in zip(terms, values)) == target


def test_solve_sum_simple_solution():
    values, proved = first(7, 1, [(2, 0, 5), (3, -2, 2)])
    assert proved and values is not None
    check_solution(7, 1, [(2, 0, 5), (3, -2, 2)], values)


def test_solve_sum_proves_infeasible():
    # 3a + 5b = 4 with a,b in [0,1] — the interval + gcd screen's blind spot
    values, proved = first(4, 0, [(3, 0, 1), (5, 0, 1)])
    assert values is None and proved


def test_solve_sum_empty_box_is_proved_infeasible():
    values, proved = first(0, 0, [(1, 3, 2)])
    assert values is None and proved


def test_solve_sum_zero_coefficients():
    values, proved = first(0, 0, [(0, 1, 4), (0, 2, 2)])
    assert proved and values is not None
    check_solution(0, 0, [(0, 1, 4), (0, 2, 2)], values)


def test_solve_sum_budget_exhaustion_is_not_a_proof():
    # many coupled terms with a tiny budget: must answer (None, False),
    # never claim a proof it did not finish
    terms = [(2, 0, 50), (3, 0, 50), (5, 0, 50), (7, 0, 50)]
    values, proved = first(1, 0, terms, budget=3)
    if values is None:
        assert not proved
    else:  # a budget this small may still find an easy solution
        check_solution(1, 0, terms, values)


@pytest.mark.parametrize("seed", range(40))
def test_solve_sum_matches_brute_force(seed):
    rng = random.Random(1000 + seed)
    terms = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(-3, 3)
        hi = lo + rng.randint(0, 4)
        terms.append((rng.randint(-5, 5), lo, hi))
    base = rng.randint(-8, 8)
    target = rng.randint(-15, 15)
    solutions = list(solve_sum(target, base, terms))
    assert None not in solutions, "tiny systems must never exhaust the budget"
    for values in solutions:
        check_solution(target, base, terms, values)
    # every solution, once each, in search order (lexicographic)
    assert solutions == brute_force(target, base, terms)


def test_solve_sum_steps_through_zero_coefficient_boxes():
    # a term no subscript reads keeps every value of its box
    assert list(solve_sum(3, 0, [(1, 0, 5), (0, 2, 4)])) == [(3, 2), (3, 3), (3, 4)]
    assert list(solve_sum(0, 0, [(0, 1, 2), (0, 3, 2)])) == []  # an empty box


def test_solve_sum_ends_on_none_when_the_budget_runs_out():
    # x = y over [0, 99]^2 has 100 solutions; 40 nodes find a few first
    solutions = list(solve_sum(0, 0, [(1, 0, 99), (-1, 0, 99)], budget=40))
    assert solutions[-1] is None
    assert solutions[:-1] == [(v, v) for v in range(len(solutions) - 1)]


# -- lane_witness: the pair rule ---------------------------------------------


def pair(kf, tf, kg, tg, axis, span, axis_lo, outer, inner, **admits):
    """``lane_witness`` for two references over one box: lanes
    ``[axis_lo, axis_lo + span]``, ``outer`` shared, ``inner`` per side."""
    lanes = (axis_lo, axis_lo + span)
    f, g = Side(kf, tf, lanes, outer, inner), Side(kg, tg, lanes, outer, inner)
    return lane_witness(f, g, axis, **admits)


def test_lane_conflict_stencil_carried():
    # A[i] = f(A[i-1]): writes A[i], reads A[i-1] -> lanes collide, at
    # the smallest lane distance
    assert pair(
        0, {"i": 1}, -1, {"i": 1}, "i", 7, 1, {}, {}
    ) == (({"i": 1}, {"i": 2}), True)


def test_lane_conflict_independent_lanes():
    # A[i] = f(B[i]): same subscript, but check A-write vs A-write only
    # touches one element per lane -> no cross-lane conflict
    assert pair(
        0, {"i": 1}, 0, {"i": 1}, "i", 7, 1, {}, {}
    ) == (None, True)


def test_lane_conflict_axis_not_in_subscript():
    # A[j] written from every i lane: conflict across lanes
    collision, _ = pair(
        0, {"j": 1}, 0, {"j": 1}, "i", 7, 1, {}, {"j": (1, 8)}
    )
    assert collision is not None


def test_lane_conflict_unknown_variable_is_conservative():
    # a subscript variable bound in neither outer nor inner: no
    # collision, and no proof of independence either
    assert pair(
        0, {"q": 1}, 0, {"q": 1}, "i", 7, 1, {}, {}
    ) == (None, False)


def test_lane_conflict_strided_lanes_disjoint():
    # A[2i] vs A[2i+1]: even vs odd elements never meet
    assert pair(
        0, {"i": 2}, 1, {"i": 2}, "i", 7, 1, {}, {}
    ) == (None, True)


def test_lane_conflict_reversal_collides():
    # A[i] vs A[N-i] (folded N=9 -> A[9-i]), i in [1,8]: lanes meet
    collision, _ = pair(
        0, {"i": 1}, 9, {"i": -1}, "i", 7, 1, {}, {}
    )
    assert collision is not None


def test_lane_conflict_outer_shared_variable():
    # A[j, i] write vs A[j-1, i] read along axis j (outer i shared):
    # folded column-major with stride 16 -> base -16, coeff 16 on j
    collision, _ = pair(
        0, {"j": 16, "i": 1}, -16, {"j": 16, "i": 1}, "j", 14, 1,
        {"i": (1, 16)}, {},
    )
    assert collision is not None


def test_an_empty_range_proves_independence():
    # A[j, k] = f(A[j - 1, k]) along j under an empty k loop: k reads with
    # one coefficient on both sides, and its empty range still decides
    stencil = (0, {"j": 1, "k": 9}, -1, {"j": 1, "k": 9}, "j", 6, 2)
    assert pair(*stencil, {"k": (7, 6)}, {}) == (None, True)
    assert pair(*stencil, {"k": (7, 7)}, {})[0] is not None
    # the two sides' outer ranges do not meet: no shared value
    f = Side(0, {"j": 1}, (1, 8), {"k": (1, 3)}, {})
    g = Side(0, {"j": 1}, (1, 8), {"k": (4, 6)}, {})
    assert lane_witness(f, g, "j") == (None, True)
    # a side whose own inner loop never runs
    f = Side(0, {"t": 1}, (1, 8), {}, {"t": (1, 4)})
    g = Side(0, {}, (1, 8), {}, {"u": (3, 2)})
    assert lane_witness(f, g, "i") == (None, True)


def test_a_witness_the_bounds_reject_is_skipped():
    # A[i] vs A[i - 1] over i in [1, 8], but only i >= 5 runs: the first
    # admitted pair is lanes 6 / 5; admitting none proves independence
    args = (0, {"i": 1}, -1, {"i": 1}, "i", 7, 1, {}, {})
    assert pair(*args, admits=lambda a, b: min(a["i"], b["i"]) >= 5) == (
        ({"i": 5}, {"i": 6}), True,
    )
    assert pair(*args, admits=lambda a, b: False) == (None, True)


def test_an_exhausted_search_is_not_a_proof():
    # every solution rejected and more of them than the budget allows
    args = (0, {"j": 1}, 0, {"j": 1}, "i", 99, 1, {}, {"j": (1, 99)})
    assert pair(*args, admits=lambda a, b: False) == (None, False)


def element(k, t, env):
    return k + sum(c * env[n] for n, c in t.items())


def brute_lane_conflict(f, g, axis, admits):
    """Direct enumeration of the cross-lane conflict question."""
    def boxes(ranges):
        names = sorted(ranges)
        return [
            dict(zip(names, values))
            for values in itertools.product(
                *(range(ranges[n][0], ranges[n][1] + 1) for n in names)
            )
        ]

    shared = {
        n: (max(lo, g.outer[n][0]), min(hi, g.outer[n][1]))
        for n, (lo, hi) in f.outer.items()
    }
    for o_env in boxes(shared):
        for a in range(f.lanes[0], f.lanes[1] + 1):
            for b in range(g.lanes[0], g.lanes[1] + 1):
                if a == b:
                    continue
                for env_f in boxes(f.inner):
                    for env_g in boxes(g.inner):
                        at_a = {**o_env, axis: a, **env_f}
                        at_b = {**o_env, axis: b, **env_g}
                        if element(f.const, f.terms, at_a) == element(
                            g.const, g.terms, at_b
                        ) and admits(at_a, at_b):
                            return True
    return False


def random_box(rng, lo_max=2, width=3):
    lo = rng.randint(0, lo_max)
    return lo, lo + rng.randint(0, width)


def random_pair(rng, axis="i", shared_box=True):
    """Two sides with their own boxes: outer ``o`` (ranges may differ per
    side), inner ``j`` per side."""
    outer = {"o": random_box(rng)} if rng.random() < 0.6 else {}
    inner = {"j": random_box(rng)} if rng.random() < 0.6 else {}

    def side():
        own_outer = outer if shared_box else {n: random_box(rng) for n in outer}
        own_inner = inner if shared_box else {n: random_box(rng) for n in inner}
        t = {axis: rng.randint(-2, 2)}
        for n in list(outer) + list(inner):
            if rng.random() < 0.8:
                t[n] = rng.randint(-2, 2)
        lanes = random_box(rng, 2, 4) if not shared_box else None
        return rng.randint(-3, 3), t, lanes, own_outer, own_inner

    (kf, tf, lf, of, jf), (kg, tg, lg, og, jg) = side(), side()
    if shared_box:
        lf = lg = random_box(rng, 2, 4)
        if lf[0] == lf[1]:
            lf = lg = (lf[0], lf[0] + 1)
    return Side(kf, tf, lf, of, jf), Side(kg, tg, lg, og, jg)


@pytest.mark.parametrize("seed", range(30))
def test_lane_conflict_never_misses_a_real_conflict(seed):
    """A proved answer is brute force's, and every collision is real."""
    rng = random.Random(2000 + seed)
    f, g = random_pair(rng)
    collision, proved = lane_witness(f, g, "i")
    assert proved, f"a pair this small must be decided: {f, g}"
    assert (collision is not None) == brute_lane_conflict(
        f, g, "i", lambda a, b: True
    ), (f, g)
    if collision is not None:
        assert_collides(f, g, "i", collision)


def assert_collides(f, g, axis, collision):
    at_a, at_b = collision
    for side, at in zip((f, g), collision):
        for name, (lo, hi) in {**side.outer, **side.inner}.items():
            assert lo <= at[name] <= hi, (f, g, collision)
        assert side.lanes[0] <= at[axis] <= side.lanes[1]
    assert at_a[axis] != at_b[axis]
    assert all(at_a[name] == at_b[name] for name in f.outer), (f, g, collision)
    assert element(f.const, f.terms, at_a) == element(g.const, g.terms, at_b)


@pytest.mark.parametrize("seed", range(40))
def test_lane_witness_over_hulls_matches_brute_force(seed):
    """Each side over its own box, and a triangular bound on each side
    that only ``admits`` knows: a proved answer is brute force's over the
    admitted pairs, and the collision is one of them."""
    rng = random.Random(3000 + seed)
    f, g = random_pair(rng, shared_box=False)
    shift_a, shift_b = rng.randint(-2, 2), rng.randint(-2, 2)

    def admits(at_a, at_b):
        # each side's j (or o) runs up to its lane plus a shift
        return all(
            at.get("j", at.get("o", 0)) <= at["i"] + shift
            for at, shift in ((at_a, shift_a), (at_b, shift_b))
        )

    collision, proved = lane_witness(f, g, "i", admits)
    assert proved, f"a pair this small must be decided: {f, g}"
    assert (collision is not None) == brute_lane_conflict(f, g, "i", admits), (f, g)
    if collision is not None:
        assert_collides(f, g, "i", collision)
        assert admits(*collision)
