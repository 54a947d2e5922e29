"""Statement AST: assignments, loops, guards, and procedure calls.

Statements are immutable; transformations build new trees.  Loop bodies
are tuples of statements.  ``Guard`` is the *structured* conditional that
fusion code generation emits (membership of the loop index in a union of
affine intervals) — keeping it structured is what lets the interpreter,
the trace generator, and inner-level fusion all consume fused code without
general control-flow analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, Union

from .affine import Affine
from .errors import ValidationError
from .expr import ArrayRef, Expr, ScalarRef, map_expr, wrap


class Stmt:
    """Base class for all statements."""

    __slots__ = ()

    def walk(self) -> Iterator["Stmt"]:
        """Pre-order traversal of this statement and all nested statements."""
        yield self
        for child in self.child_stmts():
            yield from child.walk()

    def child_stmts(self) -> tuple["Stmt", ...]:
        return ()

    def map_bodies(self, fn) -> "Stmt":
        """This statement with every nested body flat-mapped through
        ``fn`` (:func:`map_body`); a statement without bodies is itself."""
        return self


def as_body(stmts: Union["Stmt", Sequence["Stmt"]]) -> tuple[Stmt, ...]:
    """Normalize a statement or sequence of statements into a body tuple."""
    if isinstance(stmts, Stmt):
        return (stmts,)
    body = tuple(stmts)
    for s in body:
        if not isinstance(s, Stmt):
            raise ValidationError(f"{s!r} is not a statement")
    return body


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = expr`` where target is an array element or a scalar."""

    target: Union[ArrayRef, ScalarRef]
    expr: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "expr", wrap(self.expr))
        if not isinstance(self.target, (ArrayRef, ScalarRef)):
            raise ValidationError(
                f"assignment target must be array/scalar ref, got {self.target!r}"
            )

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass(frozen=True)
class Loop(Stmt):
    """``for index = lower, upper { body }`` with inclusive Fortran bounds.

    ``label`` is cosmetic bookkeeping (which source loop this came from,
    through distribution and fusion); it does not affect equality.
    """

    index: str
    lower: Expr
    upper: Expr
    body: tuple[Stmt, ...]
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", wrap(self.lower))
        object.__setattr__(self, "upper", wrap(self.upper))
        object.__setattr__(self, "body", as_body(self.body))

    def child_stmts(self) -> tuple[Stmt, ...]:
        return self.body

    def bounds_affine(self) -> tuple[Affine, Affine]:
        return self.lower.affine(), self.upper.affine()

    def with_body(self, body: Sequence[Stmt]) -> "Loop":
        return replace(self, body=as_body(body))

    def map_bodies(self, fn) -> "Loop":
        return replace(self, body=map_body(self.body, fn))

    def __str__(self) -> str:
        return f"for {self.index} = {self.lower}, {self.upper} ({len(self.body)} stmts)"


@dataclass(frozen=True)
class Interval:
    """An inclusive interval ``[lower, upper]`` with affine endpoints."""

    lower: Affine
    upper: Affine

    @staticmethod
    def point(value: Affine) -> "Interval":
        return Interval(value, value)

    def __str__(self) -> str:
        if self.lower == self.upper:
            return f"{self.lower}"
        return f"{self.lower}:{self.upper}"


@dataclass(frozen=True)
class Guard(Stmt):
    """Structured conditional: run ``body`` when ``index`` lies in the union
    of ``intervals``, otherwise run ``else_body``.

    Emitted by fused-loop code generation (e.g. the ``if (i == 2)`` in the
    paper's Figure 4(a)); the interval endpoints are affine in program
    parameters so membership is decidable per iteration.
    """

    index: str
    intervals: tuple[Interval, ...]
    body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", as_body(self.body))
        object.__setattr__(self, "else_body", as_body(self.else_body))
        if not self.intervals:
            raise ValidationError("guard needs at least one interval")

    def child_stmts(self) -> tuple[Stmt, ...]:
        return self.body + self.else_body

    def map_bodies(self, fn) -> "Guard":
        return replace(
            self, body=map_body(self.body, fn), else_body=map_body(self.else_body, fn)
        )

    def __str__(self) -> str:
        ranges = ", ".join(str(iv) for iv in self.intervals)
        return f"when {self.index} in [{ranges}]"


@dataclass(frozen=True)
class CallStmt(Stmt):
    """A call to a user procedure (inlining substrate; no return value)."""

    proc: str
    args: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(wrap(a) for a in self.args))

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"call {self.proc}({inner})"


# -- traversal helpers ------------------------------------------------------


def map_body(
    stmts: Sequence[Stmt], fn
) -> tuple[Stmt, ...]:
    """Apply ``fn`` to each statement, flattening ``None`` (drop) and lists."""
    out: list[Stmt] = []
    for s in stmts:
        res = fn(s)
        if res is None:
            continue
        if isinstance(res, Stmt):
            out.append(res)
        else:
            out.extend(res)
    return tuple(out)


def map_exprs(stmt: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Rebuild ``stmt``'s tree with every expression slot — array targets,
    right-hand sides, loop bounds, call arguments — mapped bottom-up by
    :func:`~repro.lang.expr.map_expr` with ``fn``.

    A scalar target is a name, not a read, so it stays; so do guard
    intervals (affine forms, not expressions).
    """
    if isinstance(stmt, Assign):
        target = stmt.target
        if isinstance(target, ArrayRef):
            target = map_expr(target, fn)
        return Assign(target, map_expr(stmt.expr, fn))
    if isinstance(stmt, CallStmt):
        return CallStmt(stmt.proc, tuple(map_expr(a, fn) for a in stmt.args))
    if isinstance(stmt, Loop):
        return replace(
            stmt,
            lower=map_expr(stmt.lower, fn),
            upper=map_expr(stmt.upper, fn),
            body=tuple(map_exprs(s, fn) for s in stmt.body),
        )
    return stmt.map_bodies(lambda s: map_exprs(s, fn))


def loops_in(stmts: Sequence[Stmt]) -> list[Loop]:
    """All loops nested anywhere inside ``stmts`` (pre-order)."""
    found: list[Loop] = []
    for s in stmts:
        for node in s.walk():
            if isinstance(node, Loop):
                found.append(node)
    return found


def assignments_in(stmts: Sequence[Stmt]) -> list[Assign]:
    found: list[Assign] = []
    for s in stmts:
        for node in s.walk():
            if isinstance(node, Assign):
                found.append(node)
    return found


def loop_nest_depth(stmt: Stmt) -> int:
    """Maximum loop nesting depth inside ``stmt`` (a bare loop has depth 1)."""
    if isinstance(stmt, Loop):
        inner = max((loop_nest_depth(s) for s in stmt.body), default=0)
        return 1 + inner
    depth = 0
    for child in stmt.child_stmts():
        depth = max(depth, loop_nest_depth(child))
    return depth
