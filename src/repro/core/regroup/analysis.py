"""Access-pattern analysis feeding data regrouping (paper §3, Fig. 8).

For every array this collects, per data dimension:

* which loop indexes it in each reference (with the loop's nesting depth),
  giving the Fig. 8 step-1 order rule: an array cannot be grouped at a
  dimension whose subscript is iterated by a loop *inner* to the loop
  iterating a lower (faster-varying) dimension;
* the *phase key* per grouping level: grouping at level L interleaves
  blocks made of dimensions 0..L-1, and is profitable only between arrays
  that are always accessed together within the loops that sweep dimension
  L — so the phase key of a reference at level L is the identity of the
  loop indexing dimension L.

Only *wide* loops (symbolic trip count, or a large constant) define
phases: the paper partitions the program into phases "each of which
accesses data that is larger than cache", so peeled boundary iterations
and small wrap loops must not break up otherwise always-together arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...lang import (
    ArrayRef,
    Assign,
    Loop,
    Program,
    Scope,
    Stmt,
    array_reads,
)


#: constant-trip loops below this count do not constitute a phase
WIDE_TRIP_THRESHOLD = 16


def _is_wide(loop: Loop) -> bool:
    trip = loop.upper.affine() - loop.lower.affine()
    if not trip.is_constant():
        return True
    return trip.int_value() + 1 >= WIDE_TRIP_THRESHOLD


@dataclass
class ArrayAccessInfo:
    """Aggregated regrouping-relevant facts about one array."""

    name: str
    ndim: int
    #: dims where the Fig. 8 order rule forbids grouping (0-based level:
    #: "cannot group at dimension d" disables interleave level d-1 .. hmm —
    #: we store the *grouping level* L that is disabled).
    ungroupable_levels: set[int] = field(default_factory=set)
    #: per grouping level L: set of fine (loop-identity) phase keys
    phase_keys: dict[int, frozenset[int]] = field(default_factory=dict)
    #: per grouping level L: set of coarse (top-level phase) keys
    coarse_keys: dict[int, frozenset[int]] = field(default_factory=dict)
    _phase_sets: dict[int, set[int]] = field(default_factory=dict)
    _coarse_sets: dict[int, set[int]] = field(default_factory=dict)

    def freeze(self) -> None:
        self.phase_keys = {
            level: frozenset(keys) for level, keys in self._phase_sets.items()
        }
        self.coarse_keys = {
            level: frozenset(keys) for level, keys in self._coarse_sets.items()
        }

    def signature(self, level: int, fine: bool = True) -> frozenset[int]:
        table = self.phase_keys if fine else self.coarse_keys
        return table.get(level, frozenset())


class _Walker(Scope):
    def __init__(self, program: Program, strict: bool = False) -> None:
        super().__init__()
        self.strict = strict
        self.program = program
        self.info: dict[str, ArrayAccessInfo] = {
            a.name: ArrayAccessInfo(a.name, a.ndim) for a in program.arrays
        }
        #: id(loop) -> whether the loop is wide enough to be a phase
        self.wide: dict[int, bool] = {}
        self.current_item: int = 0

    # -- reference handling ------------------------------------------------

    def ref(self, ref: ArrayRef) -> None:
        info = self.info[ref.array]
        depth_of = {r.index: depth for depth, r in enumerate(self.ranges)}
        loop_of = {r.index: r.loop for r in self.ranges}
        dim_vars: list[Optional[str]] = []
        for sub in ref.index_affines():
            candidates = [v for v in sub.variables() if v in depth_of]
            if len(candidates) == 1:
                dim_vars.append(candidates[0])
            else:
                dim_vars.append(None)  # invariant or complex subscript
        # Fig. 8 step 1 (order rule): for dims a < b (a faster-varying),
        # if dim a's loop is OUTER to dim b's loop, the traversal order
        # conflicts with interleaving blocks of dims < b: disable grouping
        # at levels >= b's block level... i.e. level b-1 and any deeper
        # block containing dim a is fine; we disable exactly level b-1
        # upward through b-1 (interleave of dims 0..b-1 blocks).
        for a in range(len(dim_vars)):
            for b in range(a + 1, len(dim_vars)):
                va, vb = dim_vars[a], dim_vars[b]
                if va is None or vb is None:
                    continue
                if depth_of[va] < depth_of[vb]:
                    info.ungroupable_levels.add(b)
        # phase keys per level: level L's phase is the loop indexing dim L,
        # counted only when that loop is wide enough to be a real phase.
        # Fine keys identify the sweeping loop itself (Fig. 7's inner-loop
        # distinction); coarse keys identify the enclosing top-level phase
        # (the paper's "sequence of computation phases").
        for level in range(info.ndim):
            if level >= len(dim_vars) or dim_vars[level] is None:
                continue
            loop = loop_of[dim_vars[level]]
            if not self.wide[id(loop)]:
                continue
            info._phase_sets.setdefault(level, set()).add(id(loop))
            info._coarse_sets.setdefault(level, set()).add(self.current_item)

    # -- traversal ---------------------------------------------------------

    def assign(self, stmt: Assign) -> None:
        for r in array_reads(stmt.expr):
            self.ref(r)
        if isinstance(stmt.target, ArrayRef):
            self.ref(stmt.target)

    def loop(self, loop: Loop) -> None:
        self.wide[id(loop)] = _is_wide(loop)
        super().loop(loop)

    def _phase_ids(self) -> list[int]:
        """Partition top-level items into computation phases.

        A phase is a maximal run of consecutive items that (a) share a
        fusion-unit label (segments of one fused loop), or (b) have no
        name-level data conflict with the items already in the phase —
        i.e. they could execute together (the per-component sweeps of a
        distributed loop form one phase, matching the paper's "sequence
        of computation phases").
        """
        ids: list[int] = []
        phase = -1
        phase_reads: set[str] = set()
        phase_writes: set[str] = set()
        prev_label: Optional[str] = None

        def sets_of(stmt: Stmt) -> tuple[set[str], set[str]]:
            reads: set[str] = set()
            writes: set[str] = set()
            for node in stmt.walk():
                if isinstance(node, Assign):
                    for r in array_reads(node.expr):
                        reads.add(r.array)
                    if isinstance(node.target, ArrayRef):
                        writes.add(node.target.array)
            return reads, writes

        for stmt in self.program.body:
            label = stmt.label if isinstance(stmt, Loop) else None
            reads, writes = sets_of(stmt)
            same_label = label is not None and label == prev_label
            conflict = bool(
                (writes & (phase_reads | phase_writes)) | (reads & phase_writes)
            )
            if phase == -1 or (not same_label and conflict):
                phase += 1
                phase_reads, phase_writes = set(), set()
            phase_reads |= reads
            phase_writes |= writes
            ids.append(phase)
            prev_label = label
        return ids

    def run(self) -> dict[str, ArrayAccessInfo]:
        if self.strict:
            phases = list(range(len(self.program.body)))
        else:
            phases = self._phase_ids()
        for k, stmt in enumerate(self.program.body):
            self.current_item = phases[k]
            self.walk_stmt(stmt)
        for info in self.info.values():
            info.freeze()
        return self.info


def analyze_access_patterns(
    program: Program, strict: bool = False
) -> dict[str, ArrayAccessInfo]:
    """Collect regrouping-relevant access information for every array.

    ``strict=True`` treats every top-level item as its own phase — the
    paper's purely conservative configuration (no useless data in any
    cache block, compile-time optimal).  The default groups consecutive
    conflict-free items into one phase, which additionally merges the
    symmetric per-component sweeps that maximal distribution produces;
    the only overhead this can introduce is partial cache lines at block
    boundaries (the paper notes that relaxing the useless-data constraint
    is where the NP-hard trade-offs start).
    """
    return _Walker(program, strict=strict).run()


def compatible_key(program: Program, name: str) -> tuple:
    """Compatibility class key: same rank and same symbolic extents.

    The paper allows sizes within a constant factor; after array splitting
    our benchmark arrays are exactly same-shaped, so we use extent equality
    (documented simplification).
    """
    decl = program.array(name)
    return (decl.ndim, tuple(decl.extent_affines()), decl.elem_size)
