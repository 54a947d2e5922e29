"""Unit tests for the shared interval + gcd lane-distance test.

``attainable`` is the conservative screen (False must be a proof),
``solve_sum`` is the exact bounded solver (a solution must satisfy the
equation; a proved None must match brute-force infeasibility), and
``lane_conflict`` is the packaged conservative decision procedure.  Each
is checked against direct enumeration on small boxes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.static.dependence_test import (
    MAX_DISTANCE_ENUM,
    attainable,
    lane_conflict,
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


# -- attainable ---------------------------------------------------------------


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
    # 3a + 5b = 4 with a,b in [0,1]: passes interval ([0,8]) and gcd
    # (gcd=1) but has no solution — attainable may say True
    terms = [(3, 0, 1), (5, 0, 1)]
    assert attainable(4, 0, terms)
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
    values, proved = solve_sum(7, 1, [(2, 0, 5), (3, -2, 2)])
    assert proved and values is not None
    check_solution(7, 1, [(2, 0, 5), (3, -2, 2)], values)


def test_solve_sum_proves_infeasible():
    # 3a + 5b = 4 with a,b in [0,1] — the attainable() blind spot
    values, proved = solve_sum(4, 0, [(3, 0, 1), (5, 0, 1)])
    assert values is None and proved


def test_solve_sum_empty_box_is_proved_infeasible():
    values, proved = solve_sum(0, 0, [(1, 3, 2)])
    assert values is None and proved


def test_solve_sum_zero_coefficients():
    values, proved = solve_sum(0, 0, [(0, 1, 4), (0, 2, 2)])
    assert proved and values is not None
    check_solution(0, 0, [(0, 1, 4), (0, 2, 2)], values)


def test_solve_sum_budget_exhaustion_is_not_a_proof():
    # many coupled terms with a tiny budget: must answer (None, False),
    # never claim a proof it did not finish
    terms = [(2, 0, 50), (3, 0, 50), (5, 0, 50), (7, 0, 50)]
    values, proved = solve_sum(1, 0, terms, budget=3)
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
    values, proved = solve_sum(target, base, terms)
    all_solutions = brute_force(target, base, terms)
    if values is not None:
        check_solution(target, base, terms, values)
        assert all_solutions, "solver invented a solution brute force lacks"
    else:
        assert proved, "tiny systems must never exhaust the budget"
        assert all_solutions == [], (
            f"solver claimed infeasible but {all_solutions[:3]} solve it"
        )


# -- lane_conflict ------------------------------------------------------------


def test_lane_conflict_stencil_carried():
    # A[i] = f(A[i-1]): writes A[i], reads A[i-1] -> lanes collide
    assert lane_conflict(
        0, {"i": 1}, -1, {"i": 1}, "i", 7, 1, {}, {}
    )


def test_lane_conflict_independent_lanes():
    # A[i] = f(B[i]): same subscript, but check A-write vs A-write only
    # touches one element per lane -> no cross-lane conflict
    assert not lane_conflict(
        0, {"i": 1}, 0, {"i": 1}, "i", 7, 1, {}, {}
    )


def test_lane_conflict_axis_not_in_subscript():
    # A[j] written from every i lane: conflict across lanes
    assert lane_conflict(
        0, {"j": 1}, 0, {"j": 1}, "i", 7, 1, {}, {"j": (1, 8)}
    )


def test_lane_conflict_unknown_variable_is_conservative():
    # a subscript variable bound in neither outer nor inner: assume conflict
    assert lane_conflict(
        0, {"q": 1}, 0, {"q": 1}, "i", 7, 1, {}, {}
    )


def test_lane_conflict_strided_lanes_disjoint():
    # A[2i] vs A[2i+1]: even vs odd elements never meet
    assert not lane_conflict(
        0, {"i": 2}, 1, {"i": 2}, "i", 7, 1, {}, {}
    )


def test_lane_conflict_reversal_collides():
    # A[i] vs A[N-i] (folded N=9 -> A[9-i]), i in [1,8]: lanes meet
    assert lane_conflict(
        0, {"i": 1}, 9, {"i": -1}, "i", 7, 1, {}, {}
    )


def test_lane_conflict_outer_shared_variable():
    # A[j, i] write vs A[j-1, i] read along axis j (outer i shared):
    # folded column-major with stride 16 -> base -16, coeff 16 on j
    assert lane_conflict(
        0, {"j": 16, "i": 1}, -16, {"j": 16, "i": 1}, "j", 14, 1,
        {"i": (1, 16)}, {},
    )


def test_lane_conflict_span_beyond_enum_cap_is_conservative():
    assert lane_conflict(
        0, {"i": 1}, -1, {"i": 1}, "i", MAX_DISTANCE_ENUM + 1, 1, {}, {}
    )


def brute_lane_conflict(kf, tf, kg, tg, axis, span, axis_lo, outer, inner):
    """Direct enumeration of the cross-lane conflict question."""
    axis_vals = range(axis_lo, axis_lo + span + 1)
    outer_names = sorted(outer)
    inner_names = sorted(inner)

    def elem(k, t, ax, o_env, i_env):
        total = k + t.get(axis, 0) * ax
        for n in outer_names:
            total += t.get(n, 0) * o_env[n]
        for n in inner_names:
            total += t.get(n, 0) * i_env[n]
        return total

    outer_boxes = [range(outer[n][0], outer[n][1] + 1) for n in outer_names]
    inner_boxes = [range(inner[n][0], inner[n][1] + 1) for n in inner_names]
    for o_vals in itertools.product(*outer_boxes):
        o_env = dict(zip(outer_names, o_vals))
        for a1 in axis_vals:
            for a2 in axis_vals:
                if a1 == a2:
                    continue
                for iv1 in itertools.product(*inner_boxes):
                    for iv2 in itertools.product(*inner_boxes):
                        e1 = elem(kf, tf, a1, o_env, dict(zip(inner_names, iv1)))
                        e2 = elem(kg, tg, a2, o_env, dict(zip(inner_names, iv2)))
                        if e1 == e2:
                            return True
    return False


@pytest.mark.parametrize("seed", range(30))
def test_lane_conflict_never_misses_a_real_conflict(seed):
    """Soundness: brute-force conflict implies lane_conflict() True."""
    rng = random.Random(2000 + seed)
    axis = "i"
    span = rng.randint(1, 4)
    axis_lo = rng.randint(0, 2)
    outer = {}
    inner = {}
    if rng.random() < 0.6:
        lo = rng.randint(0, 2)
        outer["o"] = (lo, lo + rng.randint(0, 3))
    if rng.random() < 0.6:
        lo = rng.randint(0, 2)
        inner["j"] = (lo, lo + rng.randint(0, 3))

    def subscript():
        t = {axis: rng.randint(-2, 2)}
        for n in list(outer) + list(inner):
            if rng.random() < 0.8:
                t[n] = rng.randint(-2, 2)
        return rng.randint(-3, 3), t

    kf, tf = subscript()
    kg, tg = subscript()
    truth = brute_lane_conflict(kf, tf, kg, tg, axis, span, axis_lo, outer, inner)
    claimed = lane_conflict(kf, tf, kg, tg, axis, span, axis_lo, outer, inner)
    if truth:
        assert claimed, (
            f"missed conflict: {kf}+{tf} vs {kg}+{tg} over span {span}"
        )
