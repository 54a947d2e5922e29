"""Polynomials over symbolic program parameters.

Reuse distances and access counts of affine loop nests are polynomials in
the loop bounds: a trip count ``(N - 1) - 2 + 1`` is affine, the product
of two trip counts is quadratic, and the footprint of a 2-D sweep is a
product of per-dimension widths.  :class:`Poly` is the closure of
:class:`~repro.lang.Affine` under multiplication — exact rational
coefficients over multi-variable monomials — plus the two queries the
static reuse analyzer needs: evaluation at a concrete input size and the
symbolic *growth* test that defines evadable reuse (paper §2.1: a reuse
is evadable iff its distance grows with the input size).

Coefficients follow the rule of :mod:`repro.lang.affine`, through the
same coercion function: an ``int`` unless genuinely fractional (a
``Fraction`` whose denominator is not 1), never a ``float`` — so trip
counts and footprints are machine-integer arithmetic, the half-window
``mean + sub * Fraction(1, 2)`` stays exact, and ``==`` / ``hash``
cannot tell ``2`` from ``Fraction(2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from ..lang import Affine, NotAffineError
from ..lang.affine import _frac

Number = Union[int, float, Fraction]

#: a monomial: sorted ``((name, power), ...)``; the empty tuple is 1
Monomial = tuple[tuple[str, int], ...]

#: probe points for the numeric growth test (exact integer arithmetic)
_GROW_LO = 10**3
_GROW_HI = 10**6


@dataclass(frozen=True)
class Poly:
    """A polynomial ``sum(coeff * monomial)`` with exact coefficients.

    Instances are immutable and hashable; zero terms are never stored and
    monomials are kept sorted, so structurally equal polynomials compare
    equal.
    """

    terms: tuple[tuple[Monomial, int | Fraction], ...] = ()

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(value: Number) -> "Poly":
        c = _frac(value)
        return Poly((((), c),)) if c else Poly()

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        return Poly(((((name, power),), 1),))

    @staticmethod
    def from_terms(terms: Mapping[Monomial, Number]) -> "Poly":
        clean = sorted((m, _frac(c)) for m, c in terms.items())
        return Poly(tuple(t for t in clean if t[1]))

    @staticmethod
    def from_affine(form: Affine) -> "Poly":
        # an empty monomial sorts first and single names sort as the form does
        const = (((), form.const),) if form.const else ()
        return Poly(const + tuple((((n, 1),), c) for n, c in form.coeffs))

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m, _ in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise NotAffineError(f"{self} is not a constant")
        return self.terms[0][1] if self.terms else 0

    def degree(self) -> int:
        """Total degree (0 for constants, -1 conventionally for zero)."""
        if not self.terms:
            return -1
        return max(sum(p for _, p in m) for m, _ in self.terms)

    def variables(self) -> frozenset[str]:
        return frozenset(n for m, _ in self.terms for n, _ in m)

    def coefficient(self, monomial: Monomial) -> int | Fraction:
        for m, c in self.terms:
            if m == monomial:
                return c
        return 0

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(value: Union["Poly", Affine, Number]) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, Affine):
            return Poly.from_affine(value)
        return Poly.constant(value)

    def __add__(self, other: Union["Poly", Affine, Number]) -> "Poly":
        other = Poly._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for m, c in other.terms:
            terms[m] = terms.get(m, 0) + c
        return Poly.from_terms(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: Union["Poly", Affine, Number]) -> "Poly":
        return self + (-Poly._coerce(other))

    def __rsub__(self, other: Union[Affine, Number]) -> "Poly":
        return Poly._coerce(other) - self

    def __mul__(self, other: Union["Poly", Affine, Number]) -> "Poly":
        other = Poly._coerce(other)
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                powers: dict[str, int] = {}
                for n, p in m1 + m2:
                    powers[n] = powers.get(n, 0) + p
                mono: Monomial = tuple(sorted(powers.items()))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly.from_terms(terms)

    __rmul__ = __mul__

    # -- evaluation -------------------------------------------------------

    def evaluate(self, env: Mapping[str, Number]) -> int | Fraction:
        """Fully evaluate; every variable must be bound in ``env``."""
        total = 0
        for mono, coeff in self.terms:
            value = coeff
            for name, power in mono:
                if name not in env:
                    raise NotAffineError(f"unbound variable {name!r} in {self}")
                value *= _frac(env[name]) ** power
            total += value
        return _frac(total)

    def substitute(self, bindings: Mapping[str, Union["Poly", Affine, Number]]) -> "Poly":
        out = Poly()
        for mono, coeff in self.terms:
            term = Poly.constant(coeff)
            for name, power in mono:
                base = (
                    Poly._coerce(bindings[name])
                    if name in bindings
                    else Poly.var(name)
                )
                for _ in range(power):
                    term = term * base
            out = out + term
        return out

    # -- the evadability query --------------------------------------------

    def grows(self) -> bool:
        """Does this polynomial grow without bound as its variables grow?

        The defining question of evadable reuse (paper §2.1).  Decided by
        probing all variables at two large integer points with exact
        arithmetic: dominant positive-coefficient terms force growth,
        constants and bounded forms do not.
        """
        if self.degree() <= 0:
            return False
        lo = self.evaluate({n: _GROW_LO for n in self.variables()})
        hi = self.evaluate({n: _GROW_HI for n in self.variables()})
        return hi >= 2 * max(lo, 1)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms,
            key=lambda t: (-sum(p for _, p in t[0]), t[0]),
        )
        parts: list[str] = []
        for mono, coeff in ordered:
            body = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in mono
            )
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


#: shared singletons
ZERO = Poly()
ONE = Poly.constant(1)
