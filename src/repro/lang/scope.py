"""One symbolic scope walk for the IR: the enclosing index ranges.

:class:`Scope` visits a program's statements in text order, without
evaluating anything, and keeps the affine range of every enclosing loop
index as a :class:`Range`.  A subclass supplies what it does at an
assignment, a loop or a call; the footprint collector, the IR linter,
the regrouping analysis and the parallelism analyzer are such
subclasses.  It is the symbolic twin of :class:`~repro.lang.Walk`, which
visits statement instances at concrete parameters.

Two rules live here and nowhere else:

* :func:`narrow`, the guard rule: inside a guard the guarded index ranges
  over the hull of the guard's intervals intersected with its enclosing
  range, each bound decided by :meth:`Affine.compare` over every value
  of the in-scope indices (eliminated first); an else branch keeps the
  enclosing range (the complement of an interval is not an interval).
* :func:`eliminate`, the affine elimination: the symbolic ``[min, max]``
  of a form over in-scope index ranges.

:func:`fold_range` is the one concrete range: :func:`eliminate`, then
:meth:`Affine.fold` at a binding.  :func:`index_intervals` says what a
loop or a guard admits of its index, for a check at one instance.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .affine import Affine, Assumptions
from .errors import AnalysisError, NotAffineError
from .stmt import Assign, CallStmt, Guard, Interval, Loop, Stmt


class Range(NamedTuple):
    """An in-scope loop index and the affine ``[lo, hi]`` it ranges over.

    ``loop`` is the loop that binds the index; ``exact`` is False once a
    guard narrowed the range to bounds :meth:`Affine.compare` could not
    order, or to the hull of several intervals.
    """

    index: str
    lo: Affine
    hi: Affine
    loop: Loop
    exact: bool = True


def narrow(
    lo: Affine, hi: Affine, guard: Guard, scope: Sequence, assume: Assumptions
) -> tuple[Affine, Affine, bool]:
    """The guard rule: an index ranging over ``[lo, hi]`` ranges over the
    returned bounds inside ``guard``, and the flag says whether those
    bounds are exact.

    The guard's bounds are the hull of its intervals where
    :func:`_compare` orders them over the in-scope ranges ``scope``
    (outermost first, as for :func:`eliminate`), the enclosing bound
    otherwise.  Each is intersected with the enclosing bound: the tighter
    one where the comparison is decided, the guard's (and inexact) where
    it is not.
    """
    return _intersect(lo, hi, guard.intervals, scope, assume)


def pieces(
    lo: Affine, hi: Affine, guard: Guard, scope: Sequence, assume: Assumptions
) -> list[tuple[Affine, Affine]]:
    """Per interval of ``guard``, the values of ``[lo, hi]`` it holds:
    its ``[lo, hi]`` once the guard rule narrows ``[lo, hi]`` to it."""
    return [
        (n_lo, n_hi)
        for n_lo, n_hi, _ in (
            _intersect(lo, hi, (iv,), scope, assume) for iv in guard.intervals
        )
    ]


def _compare(
    a: Affine, b: Affine, scope: Sequence, assume: Assumptions
) -> Optional[int]:
    """:meth:`Affine.compare` of ``a`` and ``b`` for every value of the
    indices of ``scope``: their difference's range over ``scope``
    (:func:`eliminate`) lies below, at or above zero, or ``None``."""
    low, high = eliminate(a - b, scope)
    if low == high:
        return low.sign(assume)
    if high.sign(assume) == -1:
        return -1
    return 1 if low.sign(assume) == 1 else None


def _intersect(
    lo: Affine,
    hi: Affine,
    intervals: Sequence[Interval],
    scope: Sequence,
    assume: Assumptions,
) -> tuple[Affine, Affine, bool]:
    g_lo = _hull([iv.lower for iv in intervals], -1, lo, scope, assume)
    g_hi = _hull([iv.upper for iv in intervals], 1, hi, scope, assume)
    c_lo = _compare(g_lo, lo, scope, assume)
    c_hi = _compare(g_hi, hi, scope, assume)
    exact = len(intervals) == 1 and c_lo is not None and c_hi is not None
    return (
        lo if c_lo == -1 else g_lo,
        hi if c_hi == 1 else g_hi,
        exact,
    )


def _hull(
    forms: Sequence[Affine],
    side: int,
    fallback: Affine,
    scope: Sequence,
    assume: Assumptions,
) -> Affine:
    """The least (``side`` -1) or greatest (+1) of ``forms``, or
    ``fallback`` when :func:`_compare` cannot order them."""
    best = forms[0]
    for form in forms[1:]:
        cmp = _compare(form, best, scope, assume)
        if cmp is None:
            return fallback
        if cmp == side:
            best = form
    return best


def eliminate(
    form: Affine,
    scope: Sequence,
    start: int = 0,
    window: Optional[tuple[int, int]] = None,
) -> tuple[Affine, Affine]:
    """Symbolic ``[min, max]`` of ``form`` over scope levels >= ``start``.

    ``scope`` lists ranges outermost first (anything with ``index``,
    ``lo`` and ``hi``).  Indices are substituted innermost first, each by
    its lower or upper bound as its coefficient's sign says, so bounds of
    inner indices that mention outer ones (triangular loops) resolve in
    later substitutions.  ``window=(level, w)`` lets that level's index
    ``i`` range over the ``w``-iteration window ``[i, i + w - 1]``
    instead: the index symbol survives as the window's anchor.
    """
    lo, hi = form, form
    for level in range(len(scope) - 1, start - 1, -1):
        rng = scope[level]
        if window is not None and level == window[0]:
            b_lo: Union[Affine, int] = Affine.var(rng.index)
            b_hi: Union[Affine, int] = Affine.var(rng.index) + (window[1] - 1)
        else:
            b_lo, b_hi = rng.lo, rng.hi
        c = lo.coeff(rng.index)
        if c != 0:
            lo = lo.substitute({rng.index: b_lo if c > 0 else b_hi})
        c = hi.coeff(rng.index)
        if c != 0:
            hi = hi.substitute({rng.index: b_hi if c > 0 else b_lo})
    return lo, hi


def fold_range(
    form: Affine, scope: Sequence, env: Mapping[str, int]
) -> tuple[int, int]:
    """The concrete ``[min, max]`` of ``form`` over the ranges of ``scope``
    (:func:`eliminate`) at the binding ``env`` (:meth:`Affine.fold`).

    A value fractional at ``env``, or a name bound by neither, is a
    :class:`NotAffineError`.
    """
    values = []
    for bound in eliminate(form, scope):
        value, free = bound.fold(env)
        if free:
            raise NotAffineError(f"unbound variable {free[0][0]!r} in {form}")
        values.append(value)
    return values[0], values[1]


def index_intervals(stmt: Union[Loop, Guard]) -> list[tuple[Affine, Affine]]:
    """The inclusive ``(lower, upper)`` intervals the index of ``stmt``, a
    loop or a guard, lies in within its body (an else branch: outside
    every one)."""
    if isinstance(stmt, Loop):
        return [stmt.bounds_affine()]
    return [(iv.lower, iv.upper) for iv in stmt.intervals]


class Scope:
    """Walks statements with the enclosing index ranges in scope.

    ``ranges`` lists the in-scope :class:`Range` values, outermost first,
    each narrowed by the guards around the current statement; ``path``
    lists ``(body label, position, statement)`` from the walk's root to
    the current statement (:meth:`where` renders it).  A subclass
    overrides :meth:`assign`, :meth:`loop` (doing its part, then calling
    this class's to walk the body) or :meth:`call`; guards it leaves to
    the one rule.  A call's procedure body is not entered.
    """

    def __init__(self, assume: Optional[Assumptions] = None) -> None:
        self.assume = Assumptions.of(assume)
        self.ranges: list[Range] = []
        self.path: list[tuple[str, int, Stmt]] = []

    def assign(self, stmt: Assign) -> None:
        """What an assignment does; nothing by default."""

    def call(self, stmt: CallStmt) -> None:
        """What a call does; nothing by default."""

    def loop(self, loop: Loop) -> None:
        """Walk ``loop``'s body with its index in scope."""
        lo, hi = loop.bounds_affine()
        self.ranges.append(Range(loop.index, lo, hi, loop))
        self.walk_body(loop.body, f"for {loop.index}")
        self.ranges.pop()

    def guard(self, guard: Guard) -> None:
        """Walk the body under the guard rule, then the else branch."""
        level = self.level(guard.index)
        if level is None:
            self.walk_body(guard.body, f"when {guard.index}")
        else:
            outer = self.ranges[level]
            lo, hi, exact = narrow(outer.lo, outer.hi, guard, self.ranges, self.assume)
            self.ranges[level] = outer._replace(
                lo=lo, hi=hi, exact=exact and outer.exact
            )
            self.walk_body(guard.body, f"when {guard.index}")
            self.ranges[level] = outer
        self.walk_body(guard.else_body, "else")

    # -- the walk -------------------------------------------------------------

    def walk_body(self, body: Sequence[Stmt], label: str = "body") -> None:
        path = self.path
        for k, stmt in enumerate(body):
            path.append((label, k, stmt))
            self.walk_stmt(stmt)
            path.pop()

    def walk_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.assign(stmt)
        elif isinstance(stmt, Loop):
            self.loop(stmt)
        elif isinstance(stmt, Guard):
            self.guard(stmt)
        elif isinstance(stmt, CallStmt):
            self.call(stmt)
        else:
            raise AnalysisError(f"cannot analyze {type(stmt).__name__}")

    def level(self, index: str) -> Optional[int]:
        """The position of ``index``'s range in :attr:`ranges`, if in scope."""
        for k in range(len(self.ranges) - 1, -1, -1):
            if self.ranges[k].index == index:
                return k
        return None

    def where(self) -> str:
        """The current statement's location, ``body[2]/for i[0]/else[1]``."""
        return "/".join(f"{label}[{k}]" for label, k, _ in self.path)
