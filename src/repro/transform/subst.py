"""Capture-avoiding substitution and renaming over the AST.

Loop fusion, statement embedding, peeling, and inlining all rewrite index
variables.  ``subst_stmt`` maps an index variable to an arbitrary affine
expression (``i -> f - 2``), translating :class:`Guard` statements whose
guard variable is being substituted (their intervals shift by the offset)
and resolving those whose guard variable becomes a point (``i -> 3``) to
the branch the point takes.
``rename_bound`` alpha-renames inner loop indices away from a set of
reserved names before bodies from different loops are merged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping, Sequence

from ..lang import (
    Affine,
    Assumptions,
    DEFAULT_PARAM_MIN,
    Expr,
    Guard,
    IndexVar,
    Interval,
    Loop,
    Stmt,
    TransformError,
    map_body,
    map_exprs,
)


def _binding_var_offset(expr: Expr) -> tuple[str, Affine]:
    """Decompose a binding used for a guard variable into (var, offset).

    Substituting the variable a :class:`Guard` tests requires the
    replacement to be ``newvar + offset``; then ``old in [a, b]`` becomes
    ``new in [a - offset, b - offset]``.
    """
    form = expr.affine()
    vars_ = list(form.variables())
    if len(vars_) != 1 or form.coeff(vars_[0]) != 1:
        raise TransformError(
            f"guard variable substituted by non-translatable expression {expr}"
        )
    name = vars_[0]
    return name, form - Affine.var(name)


def subst_affine(form: Affine, bindings: Mapping[str, Expr]) -> Affine:
    """Substitute into an affine form (bindings must be affine exprs)."""
    return form.substitute({n: e.affine() for n, e in bindings.items() if n in form.variables()})


def _branch(
    guard: Guard, point: Affine, bindings: Mapping[str, Expr], assume: Assumptions
) -> tuple[Stmt, ...]:
    """The branch of ``guard`` its variable takes at ``point``, where
    :meth:`Affine.compare` decides it."""
    decided = True
    for iv in guard.intervals:
        above = point.compare(subst_affine(iv.lower, bindings), assume)
        below = point.compare(subst_affine(iv.upper, bindings), assume)
        if above in (0, 1) and below in (-1, 0):
            return guard.body
        decided = decided and (above == -1 or below == 1)
    if not decided:
        raise TransformError(f"cannot decide whether {guard.index} = {point} in {guard}")
    return guard.else_body


def subst_stmt(
    stmt: Stmt, bindings: Mapping[str, Expr], params: Iterable[str] = ()
) -> tuple[Stmt, ...]:
    """Capture-avoiding substitution over a statement tree: the statements
    ``stmt`` becomes.

    A guard whose variable is bound to a point (a form over ``params``
    only, each at least :data:`~repro.lang.DEFAULT_PARAM_MIN`) becomes
    the branch the point takes; where the comparison cannot decide that,
    it is a :class:`TransformError`.  Binders (loop indices) must not
    collide with binding names or their free variables — callers rename
    first via :func:`rename_bound`.
    """
    if not bindings:
        return (stmt,)
    params = frozenset(params)
    assume = Assumptions(None, tuple((p, DEFAULT_PARAM_MIN) for p in sorted(params)))

    def translate(s: Stmt) -> Stmt | tuple[Stmt, ...]:
        # guard intervals are affine forms, not expression slots
        s = s.map_bodies(translate)
        if isinstance(s, Loop) and s.index in bindings:
            raise TransformError(
                f"substitution target {s.index!r} is re-bound by an inner loop"
            )
        if not isinstance(s, Guard):
            return s
        index, offset = s.index, Affine()
        if index in bindings:
            point = bindings[index].affine()
            if point.variables() <= params:
                return _branch(s, point, bindings, assume)
            index, offset = _binding_var_offset(bindings[index])
        intervals = tuple(
            Interval(
                subst_affine(iv.lower, bindings) - offset,
                subst_affine(iv.upper, bindings) - offset,
            )
            for iv in s.intervals
        )
        return replace(s, index=index, intervals=intervals)

    return tuple(
        map_exprs(
            s, lambda e: bindings.get(e.name, e) if isinstance(e, IndexVar) else e
        )
        for s in map_body((stmt,), translate)
    )


def bound_names(stmts: Sequence[Stmt]) -> set[str]:
    """All loop indices bound anywhere inside ``stmts``."""
    out: set[str] = set()
    for s in stmts:
        for node in s.walk():
            if isinstance(node, Loop):
                out.add(node.index)
    return out


class FreshNames:
    """Generates index names avoiding a reserved set."""

    def __init__(self, reserved: Iterable[str] = ()) -> None:
        self.reserved = set(reserved)
        self.counter = 0

    def reserve(self, names: Iterable[str]) -> None:
        self.reserved.update(names)

    def fresh(self, base: str = "f") -> str:
        while True:
            self.counter += 1
            name = f"{base}{self.counter}"
            if name not in self.reserved:
                self.reserved.add(name)
                return name


def rename_bound(stmt: Stmt, avoid: set[str], fresh: FreshNames) -> Stmt:
    """Alpha-rename loop indices inside ``stmt`` that collide with ``avoid``."""
    stmt = stmt.map_bodies(lambda s: rename_bound(s, avoid, fresh))
    if isinstance(stmt, Loop) and stmt.index in avoid:
        name = fresh.fresh(stmt.index)
        body = map_body(
            stmt.body, lambda s: subst_stmt(s, {stmt.index: IndexVar(name)})
        )
        stmt = replace(stmt, index=name, body=body)
    return stmt
