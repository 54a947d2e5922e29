"""Source-level emission of regrouping decisions.

The paper applies regrouping as a source-to-source transformation (its
Fig. 7 writes the merged Fortran array ``D``).  The simulator consumes
regrouping as a :class:`Layout`; this module additionally *emits the
rewritten program* for the groups our language can express: uniform
single-level interleaves, where a group of ``m`` same-shaped arrays
becomes one merged array with an extra constant-``m`` dimension at the
interleave level —

    A[j, i], B[j, i]   --interleave@level0-->   D[c, j, i]  (c in 1..2)
    A[j, i], B[j, i]   --interleave@level1-->   D[j, c, i]

Nested (Fig. 7-style non-uniform) trees are not expressible as a single
rectangular array — exactly the Fortran limitation the paper points out
("popular programming languages such as Fortran do not allow arrays of
non-uniform dimensions... not a problem when regrouping is applied by the
back-end compiler") — so those groups are left to the layout engine and
reported in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...lang import ArrayDecl, ArrayRef, Const, Expr, Program, map_exprs
from .algorithm import GroupNode, RegroupPlan


@dataclass(frozen=True)
class SourceRegrouping:
    """Result of emitting a plan at source level."""

    program: Program
    #: member array -> (merged name, 1-based member ordinal, level)
    mapping: dict[str, tuple[str, int, int]]
    #: groups that could not be expressed as rectangular arrays
    unexpressible: tuple[tuple[str, ...], ...]


def _expressible(node: GroupNode) -> bool:
    return all(not isinstance(c, GroupNode) for c in node.children)


def emit_source(plan: RegroupPlan) -> SourceRegrouping:
    """Rewrite the plan's program with merged arrays where expressible."""
    program = plan.program
    mapping: dict[str, tuple[str, int, int]] = {}
    unexpressible: list[tuple[str, ...]] = []
    new_decls: list[ArrayDecl] = []
    taken = set(program.array_names())
    counter = 0
    for item in plan.items:
        if isinstance(item, str):
            new_decls.append(program.array(item))
            continue
        if not _expressible(item):
            unexpressible.append(tuple(item.leaves()))
            new_decls.extend(program.array(name) for name in item.leaves())
            continue
        members = [c for c in item.children if isinstance(c, str)]
        counter += 1
        merged = f"GRP{counter}"
        while merged in taken:
            counter += 1
            merged = f"GRP{counter}"
        taken.add(merged)
        base = program.array(members[0])
        extents = (
            base.extents[: item.level]
            + (Const(len(members)),)
            + base.extents[item.level :]
        )
        new_decls.append(ArrayDecl(merged, extents, elem_size=base.elem_size))
        for ordinal, name in enumerate(members, start=1):
            mapping[name] = (merged, ordinal, item.level)

    def merge(expr: Expr) -> Expr:
        entry = mapping.get(expr.array) if isinstance(expr, ArrayRef) else None
        if entry is None:
            return expr
        merged, ordinal, level = entry
        indices = expr.indices[:level] + (Const(ordinal),) + expr.indices[level:]
        return ArrayRef(merged, indices)

    rewritten = replace(
        program,
        arrays=tuple(new_decls),
        body=tuple(map_exprs(s, merge) for s in program.body),
    )
    return SourceRegrouping(
        program=rewritten,
        mapping=mapping,
        unexpressible=tuple(unexpressible),
    )
