"""Multi-level inter-array data regrouping (paper §3, Fig. 8).

Arrays are first classified into *compatible* groups (same rank and
symbolic extents — the shape equality that holds after array splitting).
Within a class, a partition chain is computed from the outermost grouping
level inward: two arrays stay in the same partition at level L iff

* neither is forbidden at L by the access-order rule (Fig. 8 step 1), and
* they are *always accessed together* in the phases that sweep dimension
  L (conservative profitability: no useless data ever enters a cache
  block — the guarantee that makes regrouping compile-time optimal).

The resulting laminar partition family forms a tree per class; each node
interleaves its children's blocks at the deepest level at which its
members remain together.  ``materialize`` turns the tree into concrete
per-array affine placements (offset + strides), reproducing e.g. the
paper's Fig. 7 layout ``A[j,i] -> D[1,j,1,i]``, ``C[j,i] -> D[j,2,i]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from ...lang import Program
from .analysis import ArrayAccessInfo, analyze_access_patterns, compatible_key
from .layout import ArrayPlacement, Layout


@dataclass
class GroupNode:
    """Interleave the children's blocks along grouping level ``level``.

    ``level`` counts contiguous inner dimensions per interleaved block:
    0 = element interleave, 1 = column blocks, ..., ndim-1 = outermost.
    """

    level: int
    children: list[Union["GroupNode", str]]

    def leaves(self) -> list[str]:
        out: list[str] = []
        for c in self.children:
            if isinstance(c, GroupNode):
                out.extend(c.leaves())
            else:
                out.append(c)
        return out

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}interleave@level{self.level}"]
        for c in self.children:
            if isinstance(c, GroupNode):
                lines.append(c.describe(indent + 1))
            else:
                lines.append(f"{pad}  {c}")
        return "\n".join(lines)


@dataclass
class RegroupOptions:
    """Configuration knobs (paper §4.1 implementation notes)."""

    #: smallest grouping level allowed; 1 reproduces the paper's SGI
    #: workaround of not interleaving at the innermost data dimension.
    min_level: int = 0
    #: largest grouping level allowed (None = ndim-1); the paper's Fortran
    #: limitation sometimes forbade outer-dimension grouping.
    max_level: Optional[int] = None
    #: levels below this use fine (per-loop) accessed-together keys, the
    #: Fig. 7 distinction between inner loops of one phase; levels at or
    #: above use coarse (per-phase) keys, the paper's computation phases.
    fine_levels: int = 1
    #: strict phases (one per top-level item): the paper's conservative
    #: guarantee — no useless data in any cache block, compile-time
    #: optimal.  The default merges consecutive conflict-free items.
    strict: bool = False


@dataclass
class RegroupPlan:
    """The symbolic outcome: a forest of group trees plus singletons."""

    program: Program
    #: top-level layout items in declaration order: group trees or lone names
    items: list[Union[GroupNode, str]] = field(default_factory=list)

    def merged_array_count(self) -> int:
        return len(self.items)

    def group_count(self) -> int:
        return sum(1 for it in self.items if isinstance(it, GroupNode))

    def describe(self) -> str:
        lines = []
        for item in self.items:
            if isinstance(item, GroupNode):
                lines.append(item.describe())
            else:
                lines.append(item)
        return "\n".join(lines)

    # -- concrete placement ---------------------------------------------------

    def materialize(self, params: Mapping[str, int]) -> Layout:
        placements: dict[str, ArrayPlacement] = {}
        base = 0
        for item in self.items:
            if isinstance(item, str):
                decl = self.program.array(item)
                shape = decl.shape(params)
                strides: list[int] = []
                acc = 1
                for extent in shape:
                    strides.append(acc)
                    acc *= extent
                placements[item] = ArrayPlacement(
                    item, shape, base, tuple(strides), decl.elem_size
                )
                base += acc
            else:
                leaves = item.leaves()
                decl = self.program.array(leaves[0])
                shape = decl.shape(params)
                prefix = [1]
                for extent in shape:
                    prefix.append(prefix[-1] * extent)
                placed = _place(item, shape, prefix)
                for name, (offset, strides) in placed.items():
                    placements[name] = ArrayPlacement(
                        name,
                        shape,
                        base + offset,
                        tuple(strides),
                        self.program.array(name).elem_size,
                    )
                base += len(leaves) * prefix[len(shape)]
        return Layout(placements, base, "regrouped")


def _leafcount(node: Union[GroupNode, str]) -> int:
    return len(node.leaves()) if isinstance(node, GroupNode) else 1


def _place(
    node: GroupNode, shape: Sequence[int], prefix: Sequence[int]
) -> dict[str, tuple[int, list[int]]]:
    """Per-leaf (offset, strides) for one group tree.

    ``prefix[k]`` = product of extents of dims < k (the isolated stride).
    """
    ndim = len(shape)
    m = _leafcount(node)
    out: dict[str, tuple[int, list[int]]] = {}
    child_off = 0
    for child in node.children:
        if isinstance(child, GroupNode):
            sub = _place(child, shape, prefix)
        else:
            sub = {child: (0, [prefix[k] for k in range(ndim)])}
        mc = _leafcount(child)
        for name, (off, strides) in sub.items():
            new_strides = [
                strides[k] if k < node.level else m * prefix[k]
                for k in range(ndim)
            ]
            out[name] = (child_off + off, new_strides)
        child_off += mc * prefix[node.level]
    return out


def _unit_key(
    unit: Union[GroupNode, str],
    level: int,
    info: Mapping[str, ArrayAccessInfo],
    options: RegroupOptions,
) -> object:
    """Merge key of a unit at grouping level ``level``.

    A unit may merge with others at this level only when every leaf is
    groupable here and all leaves agree on a non-empty accessed-together
    signature — the conservative "always accessed together" criterion,
    lifted from arrays to already-formed groups.
    """
    leaves = unit.leaves() if isinstance(unit, GroupNode) else [unit]
    if level < options.min_level or (
        options.max_level is not None and level > options.max_level
    ):
        return ("solo", id(unit))
    fine = level < options.fine_levels
    sigs = set()
    for name in leaves:
        ai = info[name]
        if level in ai.ungroupable_levels:
            return ("solo", id(unit))
        sigs.add(ai.signature(level, fine=fine))
    if len(sigs) != 1 or not next(iter(sigs)):
        return ("solo", id(unit))
    return ("sig", next(iter(sigs)))


def regroup_plan(
    program: Program, options: Optional[RegroupOptions] = None
) -> RegroupPlan:
    """Run the Fig. 8 algorithm; returns the symbolic grouping decision.

    Groups are composed bottom-up: element-level (deepest) interleaving is
    formed first, then each outer level merges the units whose members are
    accessed together in every phase that sweeps that level.  Deeper
    grouping is strictly finer spatial reuse, and the bottom-up order
    yields the laminar structure the paper's step 3 requires (a class
    grouped at a dimension is fully grouped at all inner levels it
    reached, e.g. Fig. 7's ``D[1,j,1,i]`` / ``D[j,2,i]``).
    """
    options = options or RegroupOptions()
    info = analyze_access_patterns(program, strict=options.strict)
    plan = RegroupPlan(program)
    # compatible classes, in declaration order
    classes: dict[tuple, list[str]] = {}
    class_order: list[tuple] = []
    for decl in program.arrays:
        key = compatible_key(program, decl.name)
        if key not in classes:
            classes[key] = []
            class_order.append(key)
        classes[key].append(decl.name)
    for key in class_order:
        ndim = key[0]
        units: list[Union[GroupNode, str]] = list(classes[key])
        for level in range(0, ndim):
            buckets: dict[object, list[Union[GroupNode, str]]] = {}
            order: list[object] = []
            for unit in units:
                ukey = _unit_key(unit, level, info, options)
                if ukey not in buckets:
                    buckets[ukey] = []
                    order.append(ukey)
                buckets[ukey].append(unit)
            merged: list[Union[GroupNode, str]] = []
            for ukey in order:
                bucket = buckets[ukey]
                if len(bucket) == 1:
                    merged.append(bucket[0])
                else:
                    merged.append(GroupNode(level, bucket))
            units = merged
        plan.items.extend(units)
    return plan
