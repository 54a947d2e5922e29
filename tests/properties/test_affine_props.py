"""Property-based tests for affine forms."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import Affine
from repro.static.poly import Poly

NAMES = ["N", "M", "i", "j", "k"]
names = st.sampled_from(NAMES)


@st.composite
def affines(draw):
    const = draw(st.integers(-50, 50))
    nterms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(nterms):
        terms[draw(names)] = draw(st.integers(-5, 5))
    return Affine.from_terms(const, terms)


envs = st.fixed_dictionaries({n: st.integers(1, 100) for n in NAMES})


@given(affines(), affines(), envs)
def test_addition_matches_evaluation(a, b, env):
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


@given(affines(), affines(), envs)
def test_subtraction_matches_evaluation(a, b, env):
    assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)


@given(affines(), st.integers(-7, 7), envs)
def test_scaling_matches_evaluation(a, c, env):
    assert (a * c).evaluate(env) == c * a.evaluate(env)


@given(affines(), affines(), envs)
def test_substitution_matches_evaluation(a, b, env):
    substituted = a.substitute({"i": b})
    env2 = dict(env)
    env2["i"] = int(b.evaluate(env))
    assert substituted.evaluate(env) == a.evaluate(env2)


@given(affines(), affines())
@settings(max_examples=200)
def test_compare_is_sound(a, b):
    """Whenever compare decides, every assignment >= the default minimum
    must agree with the decision."""
    verdict = a.compare(b, 8)
    if verdict is None:
        return
    # sample a few corners of the assignment space
    for point in (8, 9, 17, 100):
        env = {n: point for n in ("N", "M", "i", "j", "k")}
        diff = a.evaluate(env) - b.evaluate(env)
        if verdict == 0:
            assert diff == 0
        elif verdict == 1:
            assert diff > 0
        else:
            assert diff < 0


@given(affines())
def test_lower_bound_is_sound(a):
    lb = a.lower_bound(8)
    if lb is None:
        return
    for point in (8, 13, 64):
        env = {n: point for n in ("N", "M", "i", "j", "k")}
        assert a.evaluate(env) >= lb


@given(affines())
def test_round_trip_through_expr(a):
    from repro.lang import affine_expr

    assert affine_expr(a, frozenset({"N", "M"})).affine() == a


# -- the representation, against a dict-of-Fraction reference model ----------
#
# The model of a form is ``(const, {name: coeff})`` in plain ``Fraction``
# arithmetic with zero terms dropped.  Every operation must agree with it
# *and* leave the stored numbers canonical: ``int`` unless genuinely
# fractional, never a ``float``, never a zero coefficient.

# denominators 1..4: sums and products hit integers often, which is the
# case the rule is about
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
scalars = st.one_of(st.integers(-4, 4), rationals, st.sampled_from([2.0, -1.0, True]))


def is_canonical(value) -> bool:
    return type(value) is int or (
        type(value) is Fraction and value.denominator != 1
    )


def clean(terms):
    return {n: Fraction(c) for n, c in terms.items() if c != 0}


@st.composite
def modelled(draw):
    """A form built through ``from_terms`` beside its reference model."""
    const = draw(rationals)
    terms = draw(st.dictionaries(names, rationals, max_size=4))
    return Affine.from_terms(const, terms), (Fraction(const), clean(terms))


def agrees(form: Affine, model) -> None:
    const, terms = model
    assert is_canonical(form.const), form
    assert all(is_canonical(c) and c != 0 for _, c in form.coeffs), form
    assert [n for n, _ in form.coeffs] == sorted(terms), form
    assert form.const == const and form.terms == terms, (form, model)
    # the parent's all-Fraction representation is the same value
    same = Affine(const, tuple(sorted(terms.items())))
    assert form == same and hash(form) == hash(same) and str(form) == str(same)


def m_add(a, b, sign=1):
    terms = dict(a[1])
    for n, c in b[1].items():
        terms[n] = terms.get(n, 0) + sign * c
    return a[0] + sign * b[0], clean(terms)


def m_scale(a, s):
    s = Fraction(s)
    return a[0] * s, clean({n: c * s for n, c in a[1].items()})


def m_eval(a, env):
    return a[0] + sum(c * Fraction(env[n]) for n, c in a[1].items())


@given(modelled(), modelled(), scalars)
@settings(max_examples=200)
def test_arithmetic_agrees_with_the_fraction_model(a, b, s):
    (fa, ma), (fb, mb) = a, b
    agrees(fa, ma)
    agrees(fa + fb, m_add(ma, mb))
    agrees(fa - fb, m_add(ma, mb, -1))
    agrees(-fa, m_scale(ma, -1))
    agrees(fa * s, m_scale(ma, s))
    agrees(s * fa, m_scale(ma, s))
    agrees(fa + s, m_add(ma, (Fraction(s), {})))
    agrees(s - fa, m_add((Fraction(s), {}), ma, -1))
    agrees(fa - fa, (0, {}))


@given(modelled(), modelled(), scalars)
@settings(max_examples=200)
def test_substitution_agrees_with_the_fraction_model(a, b, s):
    (fa, ma), (fb, mb) = a, b
    rest = (ma[0], {n: c for n, c in ma[1].items() if n not in ("i", "j")})
    want = m_add(
        m_add(rest, m_scale(mb, ma[1].get("i", 0))),
        (Fraction(s) * ma[1].get("j", 0), {}),
    )
    agrees(fa.substitute({"i": fb, "j": s}), want)


@given(modelled(), st.fixed_dictionaries({n: scalars for n in NAMES}))
def test_evaluation_agrees_with_the_fraction_model(a, env):
    form, model = a
    value = form.evaluate(env)
    assert is_canonical(value)
    assert value == m_eval(model, env)


@given(modelled(), modelled(), st.sampled_from([1, 3, 8]))
def test_sign_queries_agree_with_the_fraction_model(a, b, minimum):
    def m_bound(model):  # const + sum(c * minimum), the one-sided extreme
        return model[0] + sum(c * minimum for c in model[1].values())

    def m_sign(model):
        const, terms = model
        if not terms:
            return (const > 0) - (const < 0)
        if all(c > 0 for c in terms.values()):
            return 1 if m_bound(model) > 0 else None
        if all(c < 0 for c in terms.values()):
            return -1 if m_bound(model) < 0 else None
        return None

    (fa, ma), (fb, mb) = a, b
    assert fa.sign(minimum) == m_sign(ma)
    assert fa.compare(fb, minimum) == m_sign(m_add(ma, mb, -1))
    lb = fa.lower_bound(minimum)
    if any(c < 0 for c in ma[1].values()):
        assert lb is None
    else:
        assert is_canonical(lb) and lb == m_bound(ma)


# -- the same rule for Poly ---------------------------------------------------


def poly_is_canonical(p: Poly) -> None:
    assert all(is_canonical(c) and c != 0 for _, c in p.terms), p
    monos = [m for m, _ in p.terms]
    assert monos == sorted(set(monos)), p


@given(modelled(), modelled(), modelled(), envs)
@settings(max_examples=150)
def test_poly_arithmetic_is_exact_and_canonical(a, b, c, env):
    (fa, ma), (fb, mb), (fc, mc) = a, b, c
    pa, pb = Poly.from_affine(fa), Poly.from_affine(fb)
    va, vb, vc = m_eval(ma, env), m_eval(mb, env), m_eval(mc, env)
    for poly, want in (
        (pa, va),
        (pa * pb, va * vb),
        (pa * fb + fc, va * vb + vc),
        (pa * pb - pb * pa, 0),
        (pa * pa * Fraction(1, 2) + pa * pa * Fraction(1, 2), va * va),
        (pa - fa, 0),
    ):
        poly_is_canonical(poly)
        value = poly.evaluate(env)
        assert is_canonical(value) and value == want, poly
    # substituting a form for a variable is evaluating at its value
    sub = (pa * pb).substitute({"i": fc, "j": 2})
    poly_is_canonical(sub)
    env2 = {**env, "i": vc, "j": 2}
    assert sub.evaluate(env) == m_eval(ma, env2) * m_eval(mb, env2)
    # an int-coefficient polynomial is the all-Fraction one: equal, same hash
    same = Poly(tuple((m, Fraction(k)) for m, k in (pa * pb).terms))
    assert same == pa * pb and hash(same) == hash(pa * pb)
    assert str(same) == str(pa * pb) and same.grows() == (pa * pb).grows()


def test_poly_growth_is_decided_on_exact_values():
    n = Poly.var("N")
    assert (n * n * Fraction(1, 2)).grows()
    assert (n * Fraction(1, 1000)).grows()
    assert not (n - n + 7).grows()
    assert not (n * -1 + 5).grows()
    half = n * Fraction(1, 2)
    assert type((half + half).coefficient((("N", 1),))) is int
    assert half.coefficient((("N", 1),)) == Fraction(1, 2)
    assert Poly.constant(Fraction(6, 3)).constant_value() == 2
    assert type(Poly.constant(2.0).constant_value()) is int


@given(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5),
    st.tuples(st.integers(-2, 2), st.integers(-5, 5)),
    st.tuples(st.integers(0, 2), st.integers(-1, 5)),
    st.integers(1, 12),
)
def test_sum_over_is_brute_force_summation(coeffs, lower, span, n):
    """``Poly.sum_over`` of a polynomial of degree 0-4 in ``x`` (each
    coefficient affine in ``N``) over ``x = lo..hi``, both bounds affine
    in ``N``, is the sum of its values; ``span (0, -1)`` is the empty
    range ``lo = hi + 1``."""
    big_n = Affine.var("N")
    poly = sum(
        ((Poly.var("x", k) if k else Poly.constant(1)) * (Poly.var("N") * b + a)
         for k, (a, b) in enumerate(coeffs)),
        Poly(),
    )
    lo = big_n * lower[0] + lower[1]
    hi = lo + big_n * span[0] + span[1]
    summed = poly.sum_over("x", lo, hi)
    poly_is_canonical(summed)
    assert "x" not in summed.variables()
    env = {"N": n}
    want = sum(
        poly.evaluate({"N": n, "x": x})
        for x in range(lo.evaluate(env), hi.evaluate(env) + 1)
    )
    assert summed.evaluate(env) == want
