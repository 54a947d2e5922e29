"""Unit tests for affine forms and symbolic comparison."""

import copy
import pickle
from dataclasses import asdict, dataclass
from fractions import Fraction

import pytest

from repro.lang import Affine, Assumptions, IndexVar, NotAffineError, ValidationError


def stored(form: Affine) -> tuple:
    """Every number a form keeps: the constant, then each coefficient."""
    return (form.const, *(c for _, c in form.coeffs))


class TestConstruction:
    def test_constant(self):
        a = Affine.constant(5)
        assert a.is_constant()
        assert a.int_value() == 5

    def test_var(self):
        v = Affine.var("N")
        assert v.coeff("N") == 1
        assert not v.is_constant()

    def test_var_zero_coeff_is_constant(self):
        assert Affine.var("N", 0) == Affine.constant(0)

    def test_from_terms_drops_zeros(self):
        a = Affine.from_terms(1, {"N": 0, "i": 2})
        assert a.variables() == {"i"}

    def test_float_coefficient_must_be_integral(self):
        with pytest.raises(NotAffineError):
            Affine.constant(0.5).__add__(Affine.var("N", 0.25))


class TestRepresentation:
    """A coefficient is an ``int`` unless it is genuinely fractional."""

    def test_integral_fractions_are_stored_as_ints(self):
        a = Affine.from_terms(Fraction(2), {"i": Fraction(4, 2)})
        b = Affine.from_terms(2, {"i": 2})
        assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2*i + 2"
        assert [type(c) for c in stored(a)] == [int, int]

    def test_true_fractions_stay_fractions(self):
        a = Affine.var("i", Fraction(1, 2)) + Fraction(3, 4)
        assert stored(a) == (Fraction(3, 4), Fraction(1, 2))
        assert [type(c) for c in stored(a)] == [Fraction, Fraction]
        assert str(a) == "1/2*i + 3/4"

    def test_fractions_that_sum_to_an_integer_become_ints(self):
        half = Affine.var("i", Fraction(1, 2)) + Fraction(1, 2)
        whole = half + half
        assert whole == Affine.var("i") + 1
        assert [type(c) for c in stored(whole)] == [int, int]
        assert [type(c) for c in stored(half * 2)] == [int, int]
        assert type(half.evaluate({"i": 3})) is int
        assert half.evaluate({"i": 2}) == Fraction(3, 2)

    def test_cancelled_terms_are_not_stored(self):
        i, j = Affine.var("i"), Affine.var("j", Fraction(1, 3))
        assert (i + j - i - j).coeffs == ()
        assert (i + j - i).coeffs == (("j", Fraction(1, 3)),)
        assert (i + j).substitute({"j": -3 * i}).coeffs == ()
        assert (i * 0).coeffs == () and Affine.var("i", 0.0).coeffs == ()

    @pytest.mark.parametrize("one", [True, 1.0, Fraction(1), Fraction(3, 3)])
    def test_bools_and_integral_floats_become_ints(self, one):
        for form in (
            Affine.constant(one),
            Affine.var("i", one) + one,
            Affine.var("i") * one - one,
            Affine.from_terms(one, {"i": one}),
            Affine.var("i").substitute({"i": one}),
        ):
            assert all(type(c) is int for c in stored(form)), form
        assert type(Affine.var("i").evaluate({"i": one})) is int

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Affine.constant(0.5),
            lambda: Affine.var("i", 0.25),
            lambda: Affine.var("i") + 0.5,
            lambda: Affine.var("i") - 0.5,
            lambda: 0.5 - Affine.var("i"),
            lambda: Affine.var("i") * 1.5,
            lambda: Affine.from_terms(0, {"i": 2.5}),
            lambda: Affine.var("i").substitute({"i": 0.5}),
            lambda: Affine.var("i").evaluate({"i": 0.5}),
            lambda: Affine.constant("1"),
        ],
    )
    def test_no_float_ever_enters_a_form(self, build):
        with pytest.raises(NotAffineError):
            build()

    def test_quotient_by_a_constant_is_an_exact_fraction(self):
        half = (IndexVar("i") / 2).affine()
        assert type(half.coeff("i")) is Fraction
        assert half.coeff("i") == Fraction(1, 2)
        two = (IndexVar("i") * 4 / 2).affine()
        assert two == Affine.var("i", 2) and type(two.coeff("i")) is int
        third = ((IndexVar("i") + 1) / (IndexVar("i") * 0 + 3)).affine()
        assert stored(third) == (Fraction(1, 3), Fraction(1, 3))

    def test_quotient_by_zero_or_a_variable_is_not_affine(self):
        for expr in (IndexVar("i") / 0, IndexVar("i") / IndexVar("j")):
            with pytest.raises(NotAffineError):
                expr.affine()


class TestArithmetic:
    def test_add_sub(self):
        n, i = Affine.var("N"), Affine.var("i")
        expr = n + i - 1
        assert expr.coeff("N") == 1
        assert expr.coeff("i") == 1
        assert expr.const == -1

    def test_cancellation(self):
        n = Affine.var("N")
        assert (n - n).is_constant()
        assert (n - n).int_value() == 0

    def test_scalar_multiplication(self):
        i = Affine.var("i")
        assert (i * 3).coeff("i") == 3
        assert (3 * i).coeff("i") == 3
        assert (i * 0) == Affine.constant(0)

    def test_negation(self):
        i = Affine.var("i")
        assert (-i).coeff("i") == -1

    def test_substitute(self):
        i, f = Affine.var("i"), Affine.var("f")
        expr = i + 2
        out = expr.substitute({"i": f - 1})
        assert out == f + 1

    def test_evaluate(self):
        expr = Affine.var("N") * 2 + 1
        assert expr.evaluate({"N": 10}) == 21

    def test_evaluate_unbound_raises(self):
        with pytest.raises(NotAffineError):
            Affine.var("N").evaluate({})

    def test_fold_folds_params(self):
        # the integer record every tracer and the parallelism analysis read
        form = Affine.from_terms(1, {"N": 2, "i": 1})
        assert form.fold({"N": 10}) == (21, (("i", 1),))
        # a fractional coefficient on a *bound* name may fold to an integer
        half = Affine.var("N", Fraction(1, 2))
        record = half.fold({"N": 8})
        assert record == (4, ()) and type(record[0]) is int

    def test_fold_rejects_fractional_residue(self):
        with pytest.raises(NotAffineError, match="fractional coefficient 1/2 of 'i'"):
            Affine.var("i", Fraction(1, 2)).fold({})
        with pytest.raises(NotAffineError, match="fractional constant 9/2"):
            Affine.var("N", Fraction(1, 2)).fold({"N": 9})


class TestComparison:
    def test_constant_signs(self):
        assert Affine.constant(3).sign() == 1
        assert Affine.constant(-3).sign() == -1
        assert Affine.constant(0).sign() == 0

    def test_param_large_positive(self):
        n = Affine.var("N")
        assert (n - 2).sign() == 1  # N >= 8 by default
        assert (2 - n).sign() == -1

    def test_indeterminate(self):
        n = Affine.var("N")
        assert (n - 100).sign() is None  # could be either side of 0
        m = Affine.var("M")
        assert (n - m).sign() is None  # mixed signs

    def test_compare(self):
        n = Affine.var("N")
        assert (n - 1).compare(n) == -1
        assert n.compare(n) == 0
        assert (n + 1).compare(n) == 1

    def test_assumptions_per_var(self):
        i = Affine.var("i")
        low = Assumptions(default=8).with_var("i", 1)
        assert (i - 2).sign(low) is None  # i could be 1
        assert i.sign(low) == 1
        unbounded = Assumptions(default=8).with_var("i", None)
        assert i.sign(unbounded) is None

    def test_lower_bound(self):
        n = Affine.var("N")
        assert (n + 1).lower_bound() == 9
        assert (n * 2).lower_bound(Assumptions(default=3)) == 6
        assert (-n).lower_bound() is None  # no upper bounds tracked

    def test_assumptions_of(self):
        a = Assumptions.of(5)
        assert a.min_of("anything") == 5
        assert Assumptions.of(a) is a


class TestDisplay:
    def test_str(self):
        expr = Affine.var("N") - 1
        assert str(expr) == "N - 1"

    def test_fraction(self):
        half = Affine.constant(Fraction(1, 2))
        assert "1/2" in str(half)


@dataclass(frozen=True)
class _Holder:
    """A dataclass that holds forms, as the IR's nodes do."""

    form: Affine
    forms: tuple[Affine, ...]


class TestValueType:
    """A form is a tuple ``(const, coeffs)``: C-level hashing and
    structural equality, and it still reads as one value everywhere."""

    FORM = Affine.from_terms(1, {"N": 2, "i": -1})

    def test_equal_forms_hash_equal(self):
        built = Affine.var("N") * 2 - Affine.var("i") + Fraction(2, 2)
        assert built == self.FORM and hash(built) == hash(self.FORM)
        assert built is not self.FORM
        assert {built: "x"}[self.FORM] == "x"
        assert Affine() == Affine.constant(0) and hash(Affine()) == hash(Affine(0, ()))

    def test_pickle_deepcopy_and_asdict_round_trip(self):
        holder = _Holder(self.FORM, (self.FORM, Affine.var("j")))
        for copied in (pickle.loads(pickle.dumps(holder)), copy.deepcopy(holder)):
            assert copied == holder and type(copied.form) is Affine
        plain = asdict(holder)
        assert plain == {"form": self.FORM, "forms": (self.FORM, Affine.var("j"))}
        assert type(plain["form"]) is Affine and _Holder(**plain) == holder

    def test_str_and_repr_are_the_form(self):
        assert str(self.FORM) == repr(self.FORM) == "2*N - i + 1"
        assert repr((self.FORM,)) == "(2*N - i + 1,)"
        assert str(Affine()) == "0"

    def test_spans_render_a_form_as_text(self):
        from repro.obs.spans import _plain

        assert _plain(self.FORM) == "2*N - i + 1"
        assert _plain([self.FORM, (1, (2, 3))]) == ["2*N - i + 1", [1, [2, 3]]]

    def test_a_form_is_never_a_subscript_tuple_or_an_interval_pair(self):
        from repro.lang.builder import ArrayHandle, assign, when
        from repro.verify.legality import _sig_str

        # one subscript, not two; not an interval (lo, hi) either; and,
        # as before it became a tuple, not an expression
        with pytest.raises(ValidationError, match="got 1 subscripts"):
            ArrayHandle("A", 2)[self.FORM]
        with pytest.raises(TypeError, match="as an expression"):
            ArrayHandle("A", 1)[self.FORM]
        stmt = assign(ArrayHandle("A", 1)[IndexVar("i")], 0.0)
        with pytest.raises(TypeError, match="as an expression"):
            when("i", [self.FORM], stmt)
        assert _sig_str(self.FORM) == "2*N - i + 1"
