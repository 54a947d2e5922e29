"""Affine linear forms over symbolic names.

The whole compiler reasons about loop bounds and subscripts as affine
expressions ``c0 + sum(ci * vi)`` where each ``vi`` is a loop index or a
symbolic program parameter (such as the mesh size ``N``).  This module
provides the canonical representation, arithmetic, and a conservative
symbolic comparison used by dependence testing and alignment computation.

Comparison semantics
--------------------
``Affine.compare`` answers "is self - other always negative / zero /
positive" under the assumption that every symbolic parameter is at least
``param_min`` (loop sizes are large).  When the sign cannot be determined
the comparison returns ``None`` and callers must fall back to a
conservative decision (e.g. "assume dependence").

Exact arithmetic
----------------
A coefficient is an ``int`` unless it is genuinely fractional: every
constant and coefficient passes through one coercion function,
:func:`_frac`, which returns ``int`` for integral input (``int``,
integral ``Fraction``, integral ``float``) and a ``Fraction`` with a
denominator other than 1 otherwise.  Subscripts, bounds and strides are
integers, so the arithmetic is machine-integer arithmetic; ``==``,
``hash``, ``.numerator`` / ``.denominator`` and ``str()`` cannot tell the
two apart (Python guarantees ``Fraction(n) == n`` with equal hashes).  A
``float`` never enters a form: whoever divides an exact value must say
``Fraction`` explicitly (``int / int`` is a float).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import NotAffineError

Number = Union[int, float, Fraction]
_Terms = tuple[tuple[str, "int | Fraction"], ...]

#: Default assumed lower bound for every symbolic parameter.  The paper's
#: inputs are all >= 14 in each dimension; 8 keeps boundary peeling legal
#: while remaining conservative.
DEFAULT_PARAM_MIN = 8


@dataclass(frozen=True)
class Assumptions:
    """Per-variable lower bounds used by symbolic comparison.

    Program parameters default to ``default`` (problem sizes are large);
    enclosing loop indices get their own minimum (often 1 or 2) so that
    inner-level fusion can compare bounds involving outer indices without
    over-claiming.  A variable mapped to ``None`` is unbounded below and
    defeats any comparison that needs its sign.
    """

    default: Optional[int] = DEFAULT_PARAM_MIN
    mins: tuple[tuple[str, Optional[int]], ...] = ()

    @staticmethod
    def of(value: Union[int, "Assumptions", None]) -> "Assumptions":
        """``value`` itself, a bound for every parameter, or (``None``)
        the default one."""
        if isinstance(value, Assumptions):
            return value
        return Assumptions() if value is None else Assumptions(default=value)

    def min_of(self, name: str) -> Optional[int]:
        for n, m in self.mins:
            if n == name:
                return m
        return self.default

    def with_var(self, name: str, minimum: Optional[int]) -> "Assumptions":
        rest = tuple((n, m) for n, m in self.mins if n != name)
        return Assumptions(self.default, rest + ((name, minimum),))

    @property
    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.mins)


@dataclass(frozen=True)
class Affine:
    """An affine form ``const + sum(coeffs[name] * name)``.

    Instances are immutable and hashable; zero coefficients are never
    stored.  Coefficients and the constant are exact: ``int``, or a
    ``Fraction`` when not integral (see the module docstring).
    """

    const: int | Fraction = 0
    coeffs: _Terms = field(default=())

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(value: Number) -> "Affine":
        return Affine(_frac(value), ())

    @staticmethod
    def var(name: str, coeff: Number = 1) -> "Affine":
        c = _frac(coeff)
        return Affine(0, ((name, c),)) if c else Affine()

    @staticmethod
    def from_terms(const: Number, terms: Mapping[str, Number]) -> "Affine":
        clean = sorted((n, _frac(c)) for n, c in terms.items())
        return Affine(_frac(const), tuple(t for t in clean if t[1]))

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[str, int | Fraction]:
        return dict(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> int | Fraction:
        if self.coeffs:
            raise NotAffineError(f"{self} is not a constant")
        return self.const

    def int_value(self) -> int:
        v = self.constant_value()
        if v.denominator != 1:
            raise NotAffineError(f"{self} is not an integer")
        return int(v)

    def variables(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    def coeff(self, name: str) -> int | Fraction:
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    def depends_on(self, names: Iterable[str]) -> bool:
        wanted = set(names)
        return any(n in wanted for n, _ in self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["Affine", Number]) -> "Affine":
        if not isinstance(other, Affine):
            other = _frac(other)
            return Affine(_frac(self.const + other), self.coeffs) if other else self
        return Affine(
            _frac(self.const + other.const), _merge(self.coeffs, other.coeffs)
        )

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(-self.const, tuple((n, -c) for n, c in self.coeffs))

    def __sub__(self, other: Union["Affine", Number]) -> "Affine":
        if not isinstance(other, Affine):
            return self + (-other)
        return Affine(
            _frac(self.const - other.const),
            _merge(self.coeffs, other.coeffs, negate=True),
        )

    def __rsub__(self, other: Number) -> "Affine":
        return -self + other

    def __mul__(self, scalar: Number) -> "Affine":
        s = _frac(scalar)
        if s == 1:
            return self
        if s == 0:
            return Affine()
        return Affine(
            _frac(self.const * s),
            tuple((n, _frac(c * s)) for n, c in self.coeffs),
        )

    __rmul__ = __mul__

    def substitute(self, bindings: Mapping[str, Union["Affine", Number]]) -> "Affine":
        """Replace variables with affine forms or numbers."""
        const = self.const
        terms: dict[str, int | Fraction] = {}
        for n, c in self.coeffs:
            if n not in bindings:
                terms[n] = terms.get(n, 0) + c
                continue
            bound = bindings[n]
            if isinstance(bound, Affine):
                const += bound.const * c
                for m, d in bound.coeffs:
                    terms[m] = terms.get(m, 0) + d * c
            else:
                const += _frac(bound) * c
        return Affine.from_terms(const, terms)

    def fold(
        self, params: Mapping[str, int]
    ) -> tuple[int, tuple[tuple[str, int], ...]]:
        """Fold the names bound in ``params`` into the constant.

        Returns the integer record ``(const, ((name, coeff), ...))`` over
        the names left free — what the tracers evaluate per iteration and
        the parallelism analysis solves over.  A constant or coefficient
        that is still fractional after the fold raises
        :class:`NotAffineError`: the form does not denote an integer
        subscript or bound at that binding.
        """
        const = self.const
        terms = []
        for name, coeff in self.coeffs:
            if name in params:
                const += coeff * params[name]
            elif coeff.denominator != 1:
                raise NotAffineError(
                    f"fractional coefficient {coeff} of {name!r} in {self}"
                )
            else:
                terms.append((name, int(coeff)))
        if const.denominator != 1:
            raise NotAffineError(f"fractional constant {const} in {self}")
        return int(const), tuple(terms)

    def evaluate(self, env: Mapping[str, Number]) -> int | Fraction:
        """Fully evaluate; every variable must be bound in ``env``."""
        total = self.const
        for n, c in self.coeffs:
            if n not in env:
                raise NotAffineError(f"unbound variable {n!r} in {self}")
            total += c * _frac(env[n])
        return _frac(total)

    # -- symbolic comparison ----------------------------------------------

    def sign(
        self, assume: Union[int, "Assumptions"] = DEFAULT_PARAM_MIN
    ) -> Optional[int]:
        """Sign of this form for all assignments respecting ``assume``.

        Returns -1, 0, +1, or ``None`` when indeterminate.  Bounds are
        one-sided (variables are assumed *unbounded above*), so a form with
        any positive coefficient can only be ``+1`` or ``None``, and
        symmetrically for negative coefficients.
        """
        if not self.coeffs:
            c = self.const
            return 0 if c == 0 else (1 if c > 0 else -1)
        assume = Assumptions.of(assume)
        if all(c > 0 for _, c in self.coeffs):
            low = self.const
            for n, c in self.coeffs:
                m = assume.min_of(n)
                if m is None:
                    return None
                low += c * m
            if low > 0:
                return 1
            return None
        if all(c < 0 for _, c in self.coeffs):
            high = self.const
            for n, c in self.coeffs:
                m = assume.min_of(n)
                if m is None:
                    return None
                high += c * m
            if high < 0:
                return -1
            return None
        return None

    def compare(
        self,
        other: Union["Affine", Number],
        assume: Union[int, "Assumptions"] = DEFAULT_PARAM_MIN,
    ) -> Optional[int]:
        """Compare two affine forms; -1 / 0 / +1 / None as for :meth:`sign`."""
        return (self - other).sign(assume)

    def lower_bound(
        self, assume: Union[int, "Assumptions"] = DEFAULT_PARAM_MIN
    ) -> Optional[int | Fraction]:
        """Greatest provable lower bound under ``assume`` (None if unbounded)."""
        assume = Assumptions.of(assume)
        total = self.const
        for n, c in self.coeffs:
            if c < 0:
                return None  # no upper bounds are tracked
            m = assume.min_of(n)
            if m is None:
                return None
            total += c * m
        return _frac(total)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for n, c in self.coeffs:
            if c == 1:
                parts.append(n)
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{c}*{n}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _frac(value: Number) -> int | Fraction:
    """The one coefficient coercion: ``int`` unless genuinely fractional."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool
        return int(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise NotAffineError(f"non-integral affine coefficient {value}")
        return int(value)
    raise NotAffineError(f"cannot coerce {value!r} into an affine coefficient")


def _merge(a: _Terms, b: _Terms, negate: bool = False) -> _Terms:
    """``a + b`` (``a - b``) of sorted term tuples; cancelled terms dropped."""
    if not b:
        return a
    if negate:
        b = tuple((n, -c) for n, c in b)
    if not a:
        return b
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ta, tb = a[i], b[j]
        if ta[0] < tb[0]:
            out.append(ta)
            i += 1
        elif tb[0] < ta[0]:
            out.append(tb)
            j += 1
        else:
            c = _frac(ta[1] + tb[1])
            if c:
                out.append((ta[0], c))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


#: Shared zero / one singletons.
ZERO = Affine()
ONE = Affine.constant(1)
