"""Capture-avoiding substitution and renaming over the AST.

Loop fusion, statement embedding, peeling, and inlining all rewrite index
variables.  ``subst_stmt`` maps an index variable to an arbitrary affine
expression (``i -> f - 2``), translating :class:`Guard` statements whose
guard variable is being substituted (their intervals shift by the offset).
``rename_bound`` alpha-renames inner loop indices away from a set of
reserved names before bodies from different loops are merged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping, Sequence

from ..lang import (
    Affine,
    Expr,
    Guard,
    IndexVar,
    Interval,
    Loop,
    Stmt,
    TransformError,
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


def subst_stmt(stmt: Stmt, bindings: Mapping[str, Expr]) -> Stmt:
    """Capture-avoiding substitution over a statement tree.

    Binders (loop indices) must not collide with binding names or their
    free variables — callers rename first via :func:`rename_bound`.
    """
    if not bindings:
        return stmt

    def translate(s: Stmt) -> Stmt:
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
            index, offset = _binding_var_offset(bindings[index])
        intervals = tuple(
            Interval(
                subst_affine(iv.lower, bindings) - offset,
                subst_affine(iv.upper, bindings) - offset,
            )
            for iv in s.intervals
        )
        return replace(s, index=index, intervals=intervals)

    return map_exprs(
        translate(stmt),
        lambda e: bindings.get(e.name, e) if isinstance(e, IndexVar) else e,
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
        body = tuple(subst_stmt(s, {stmt.index: IndexVar(name)}) for s in stmt.body)
        stmt = replace(stmt, index=name, body=body)
    return stmt
