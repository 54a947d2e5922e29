"""Unit tests for the exact solver and the cross-lane pair rule.

``solve_sum`` is the exact bounded solver (a solution must satisfy the
equation; a proved None must match brute-force infeasibility); its first
step is the interval + gcd screen, which the ``attainable`` cases pin.
``lane_witness`` is the pair rule the parallelism analyzer asks: when it
answers with a proof, it reports a collision exactly when direct
enumeration finds one, and every collision it reports is real.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.static.dependence_test import lane_witness, solve_sum


def brute_force(target, base, terms):
    """All solutions of base + sum(c*t) == target by enumeration."""
    boxes = [range(lo, hi + 1) for _, lo, hi in terms]
    out = []
    for values in itertools.product(*boxes):
        if base + sum(c * v for (c, _, _), v in zip(terms, values)) == target:
            out.append(values)
    return out


# -- attainable: the screen at solve_sum's root ------------------------------


def attainable(target, base, terms):
    """Does ``solve_sum`` find ``target``?  These systems are tiny, so
    every answer must be a proof."""
    values, proved = solve_sum(target, base, terms)
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
    assert solve_sum(11, 0, terms, budget=1) == (None, True)
    assert solve_sum(4, 0, terms, budget=1) == (None, False)
    assert solve_sum(4, 0, terms) == (None, True)
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
    # 3a + 5b = 4 with a,b in [0,1] — the interval + gcd screen's blind spot
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


# -- lane_witness: the pair rule ---------------------------------------------


def test_lane_conflict_stencil_carried():
    # A[i] = f(A[i-1]): writes A[i], reads A[i-1] -> lanes collide, at
    # the smallest lane distance
    assert lane_witness(
        0, {"i": 1}, -1, {"i": 1}, "i", 7, 1, {}, {}
    ) == (({"i": 1}, {"i": 2}), True)


def test_lane_conflict_independent_lanes():
    # A[i] = f(B[i]): same subscript, but check A-write vs A-write only
    # touches one element per lane -> no cross-lane conflict
    assert lane_witness(
        0, {"i": 1}, 0, {"i": 1}, "i", 7, 1, {}, {}
    ) == (None, True)


def test_lane_conflict_axis_not_in_subscript():
    # A[j] written from every i lane: conflict across lanes
    collision, _ = lane_witness(
        0, {"j": 1}, 0, {"j": 1}, "i", 7, 1, {}, {"j": (1, 8)}
    )
    assert collision is not None


def test_lane_conflict_unknown_variable_is_conservative():
    # a subscript variable bound in neither outer nor inner: no
    # collision, and no proof of independence either
    assert lane_witness(
        0, {"q": 1}, 0, {"q": 1}, "i", 7, 1, {}, {}
    ) == (None, False)


def test_lane_conflict_strided_lanes_disjoint():
    # A[2i] vs A[2i+1]: even vs odd elements never meet
    assert lane_witness(
        0, {"i": 2}, 1, {"i": 2}, "i", 7, 1, {}, {}
    ) == (None, True)


def test_lane_conflict_reversal_collides():
    # A[i] vs A[N-i] (folded N=9 -> A[9-i]), i in [1,8]: lanes meet
    collision, _ = lane_witness(
        0, {"i": 1}, 9, {"i": -1}, "i", 7, 1, {}, {}
    )
    assert collision is not None


def test_lane_conflict_outer_shared_variable():
    # A[j, i] write vs A[j-1, i] read along axis j (outer i shared):
    # folded column-major with stride 16 -> base -16, coeff 16 on j
    collision, _ = lane_witness(
        0, {"j": 16, "i": 1}, -16, {"j": 16, "i": 1}, "j", 14, 1,
        {"i": (1, 16)}, {},
    )
    assert collision is not None


def element(k, t, env):
    return k + sum(c * env[n] for n, c in t.items())


def brute_lane_conflict(kf, tf, kg, tg, axis, span, axis_lo, outer, inner):
    """Direct enumeration of the cross-lane conflict question."""
    axis_vals = range(axis_lo, axis_lo + span + 1)
    inner_names = sorted(inner)
    outer_boxes = [range(lo, hi + 1) for lo, hi in outer.values()]
    inner_boxes = [range(inner[n][0], inner[n][1] + 1) for n in inner_names]
    for o_vals in itertools.product(*outer_boxes):
        o_env = dict(zip(outer, o_vals))
        for a1 in axis_vals:
            for a2 in axis_vals:
                if a1 == a2:
                    continue
                for iv1 in itertools.product(*inner_boxes):
                    for iv2 in itertools.product(*inner_boxes):
                        e1 = element(kf, tf, {
                            **o_env, axis: a1, **dict(zip(inner_names, iv1))
                        })
                        e2 = element(kg, tg, {
                            **o_env, axis: a2, **dict(zip(inner_names, iv2))
                        })
                        if e1 == e2:
                            return True
    return False


@pytest.mark.parametrize("seed", range(30))
def test_lane_conflict_never_misses_a_real_conflict(seed):
    """A proved answer is brute force's, and every collision is real."""
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
    args = (kf, tf, kg, tg, axis, span, axis_lo, outer, inner)
    collision, proved = lane_witness(*args)
    assert proved, f"a pair this small must be decided: {args}"
    assert (collision is not None) == brute_lane_conflict(*args), args
    if collision is None:
        return
    at_a, at_b = collision
    for at in collision:
        # a variable a subscript does not read may take any value
        for name, (lo, hi) in {**outer, **inner}.items():
            assert lo <= at.setdefault(name, lo) <= hi, (args, collision)
        assert axis_lo <= at[axis] <= axis_lo + span
    assert at_a[axis] != at_b[axis]
    assert all(at_a[name] == at_b[name] for name in outer), (args, collision)
    assert element(kf, tf, at_a) == element(kg, tg, at_b), (args, collision)
