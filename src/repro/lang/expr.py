"""Expression AST for the mini loop language.

Expressions are immutable trees.  Arithmetic operators are overloaded so
tests and builders can write ``a[i] + 0.5 * b[i]`` directly.  The central
analysis hook is :meth:`Expr.affine`, which extracts the canonical affine
form of subscripts and bounds (or raises :class:`NotAffineError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .affine import Affine
from .errors import NotAffineError

NumberLike = Union[int, float]


class Expr:
    """Base class for all expressions."""

    __slots__ = ()

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", self, wrap(other))

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", wrap(other), self)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", self, wrap(other))

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", wrap(other), self)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", self, wrap(other))

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", wrap(other), self)

    def __truediv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("/", self, wrap(other))

    def __rtruediv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("/", wrap(other), self)

    def __neg__(self) -> "UnaryOp":
        return UnaryOp("-", self)

    # -- analysis hooks -----------------------------------------------------

    def affine(self) -> Affine:
        """Canonical affine form of this expression.

        Raises :class:`NotAffineError` for anything nonlinear (products of
        variables, calls, array reads, ...).
        """
        raise NotAffineError(f"expression {self!r} is not affine")

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()


ExprLike = Union[Expr, NumberLike]


def wrap(value: ExprLike) -> Expr:
    """Coerce Python numbers to :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an expression")


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: NumberLike

    def affine(self) -> Affine:
        return Affine.constant(self.value)

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, float) else str(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A symbolic program parameter such as the mesh size ``N``."""

    name: str

    def affine(self) -> Affine:
        return Affine.var(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IndexVar(Expr):
    """A loop induction variable."""

    name: str

    def affine(self) -> Affine:
        return Affine.var(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ScalarRef(Expr):
    """A read of a scalar variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(Expr):
    """A subscripted array reference ``A[e1, ..., ek]``.

    Subscripts are listed outermost dimension first (row-major order in the
    printed form); the memory layout is a property of the
    :class:`~repro.core.regroup.layout.Layout`, not of the reference.
    """

    array: str
    indices: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(wrap(e) for e in self.indices))

    def children(self) -> tuple[Expr, ...]:
        return self.indices

    def index_affines(self) -> tuple[Affine, ...]:
        return tuple(e.affine() for e in self.indices)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.indices)
        return f"{self.array}[{inner}]"


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic: ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def affine(self) -> Affine:
        if self.op == "+":
            return self.left.affine() + self.right.affine()
        if self.op == "-":
            return self.left.affine() - self.right.affine()
        if self.op == "*":
            lhs, rhs = self.left.affine(), self.right.affine()
            if lhs.is_constant():
                return rhs * lhs.constant_value()
            if rhs.is_constant():
                return lhs * rhs.constant_value()
            raise NotAffineError(f"nonlinear product {self}")
        if self.op == "/":
            rhs = self.right.affine()
            if rhs.is_constant() and rhs.constant_value() != 0:
                # say Fraction: ``1 / int`` would put a float into the form
                return self.left.affine() * Fraction(1, rhs.constant_value())
            raise NotAffineError(f"nonlinear quotient {self}")
        raise NotAffineError(f"operator {self.op!r} is not affine")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary negation."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def affine(self) -> Affine:
        if self.op == "-":
            return -self.operand.affine()
        raise NotAffineError(f"operator {self.op!r} is not affine")

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """A call to an opaque pure function (``f``, ``g``, ``sqrt``...).

    Calls model the numeric work the paper's kernels do; the interpreter
    binds them to deterministic numpy implementations, while every
    dependence analysis treats them as black boxes over their arguments.
    """

    func: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(wrap(a) for a in self.args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.func}({inner})"


def array_reads(expr: Expr) -> list[ArrayRef]:
    """All array references appearing in ``expr`` (document order)."""
    return [node for node in expr.walk() if isinstance(node, ArrayRef)]
