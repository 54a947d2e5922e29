"""Fusion units: the working representation of (partially) fused loops.

A :class:`FusionUnit` is an ordered collection of *slots*:

* :class:`Member` — an original loop, aligned into the fused iteration
  space by an integer ``shift`` (its iteration ``i`` executes at fused
  position ``i + shift``);
* :class:`Embed` — statements pinned to a single (affine) fused iteration
  by statement embedding or boundary peeling.

Slot order is program order, which is also execution order within one
fused iteration.  A *loose* unit (no members) wraps a non-loop statement
that has not (yet) been embedded anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from ...analysis import (
    RefAccess,
    collect_loop_accesses,
    collect_stmt_accesses,
    symbolic_max,
    symbolic_min,
)
from ...lang import Affine, Loop, Stmt
from ...obs import metrics


class AccessMemo:
    """Identity-keyed memo of access collection, alive for one fusion run.

    Member loops and embedded statements are immutable and survive unit
    re-merges unchanged, so re-collecting a unit after each greedy step
    hits here instead of re-walking every member.  Every entry keeps a
    reference to its node, so an id cannot be recycled while the memo
    lives; member loops are always :class:`Loop` and embedded or loose
    statements never are, so one table serves both collectors.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[Stmt, list[RefAccess]]] = {}
        self.hits = 0
        self.misses = 0

    def loop_accesses(self, loop: Loop, fixed: tuple[str, ...]) -> list[RefAccess]:
        return self._get(loop, fixed, collect_loop_accesses)

    def stmt_accesses(self, stmt: Stmt, fixed: tuple[str, ...]) -> list[RefAccess]:
        return self._get(stmt, fixed, collect_stmt_accesses)

    def _get(self, node: Stmt, fixed: tuple[str, ...], collect) -> list[RefAccess]:
        key = (id(node), fixed)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = self._entries[key] = (node, collect(node, fixed))
        else:
            self.hits += 1
        return entry[1]

    def publish(self) -> None:
        """End of the run: report the hit/miss pair, drop every entry."""
        metrics.inc("analysis.cache.hits", self.hits)
        metrics.inc("analysis.cache.misses", self.misses)
        self._entries.clear()
        self.hits = self.misses = 0


@dataclass(frozen=True)
class Member:
    loop: Loop
    shift: int = 0

    @property
    def fused_lo(self) -> Affine:
        return self.loop.lower.affine() + self.shift

    @property
    def fused_hi(self) -> Affine:
        return self.loop.upper.affine() + self.shift


@dataclass(frozen=True)
class Embed:
    stmts: tuple[Stmt, ...]
    at: Affine


Slot = Union[Member, Embed]


@dataclass
class FusionUnit:
    """One item of the working list during a fusion pass.

    ``params`` are the program's true symbolic parameters (used by code
    generation); ``fixed`` additionally includes enclosing loop indices,
    which are symbolic constants from this level's point of view (used by
    access classification).
    """

    params: tuple[str, ...]
    slots: tuple[Slot, ...] = ()
    loose: tuple[Stmt, ...] = ()  # statements not pinned to an iteration
    fixed: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.fixed:
            self.fixed = self.params

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_loop(
        loop: Loop, params: Sequence[str], fixed: Sequence[str] = ()
    ) -> "FusionUnit":
        return FusionUnit(
            tuple(params), (Member(loop, 0),), fixed=tuple(fixed) or tuple(params)
        )

    @staticmethod
    def from_stmt(
        stmt: Stmt, params: Sequence[str], fixed: Sequence[str] = ()
    ) -> "FusionUnit":
        return FusionUnit(
            tuple(params), (), (stmt,), fixed=tuple(fixed) or tuple(params)
        )

    # -- queries ----------------------------------------------------------

    @property
    def is_loose(self) -> bool:
        return not self.slots

    @property
    def members(self) -> list[Member]:
        return [s for s in self.slots if isinstance(s, Member)]

    @property
    def embeds(self) -> list[Embed]:
        return [s for s in self.slots if isinstance(s, Embed)]

    def is_simple_loop(self) -> bool:
        """A unit that is still exactly one unshifted loop (peelable)."""
        return (
            len(self.slots) == 1
            and isinstance(self.slots[0], Member)
            and self.slots[0].shift == 0
            and not self.loose
        )

    def accesses(self, memo: AccessMemo) -> list[RefAccess]:
        """Frame-relative accesses of everything in the unit."""
        out: list[RefAccess] = []
        for slot in self.slots:
            if isinstance(slot, Member):
                shift = Affine.constant(slot.shift)
                for acc in memo.loop_accesses(slot.loop, self.fixed):
                    out.append(acc.shifted(shift))
            else:
                for stmt in slot.stmts:
                    for acc in memo.stmt_accesses(stmt, self.fixed):
                        out.append(
                            replace(acc, active_lo=slot.at, active_hi=slot.at)
                        )
        for stmt in self.loose:
            out.extend(memo.stmt_accesses(stmt, self.fixed))
        return out

    def hull(self, assume) -> Optional[tuple[Affine, Affine]]:
        """Symbolic [lo, hi] of the fused iteration space; None if unordered."""
        los: list[Affine] = []
        his: list[Affine] = []
        for slot in self.slots:
            if isinstance(slot, Member):
                los.append(slot.fused_lo)
                his.append(slot.fused_hi)
            else:
                los.append(slot.at)
                his.append(slot.at)
        if not los:
            return None
        lo = symbolic_min(los, assume)
        hi = symbolic_max(his, assume)
        if lo is None or hi is None:
            return None
        return lo, hi

    def loop_count(self) -> int:
        return len(self.members)

    # -- combination -----------------------------------------------------

    def fuse_with(self, later: "FusionUnit", alignment: int) -> "FusionUnit":
        """Fuse ``later`` (which follows this unit in program order) in.

        ``later``'s iteration ``u`` lands at fused position ``u + alignment``.
        """
        moved: list[Slot] = []
        for slot in later.slots:
            if isinstance(slot, Member):
                moved.append(Member(slot.loop, slot.shift + alignment))
            else:
                moved.append(Embed(slot.stmts, slot.at + alignment))
        return FusionUnit(
            self.params, self.slots + tuple(moved), self.loose + later.loose, self.fixed
        )

    def with_embed_last(self, stmts: Sequence[Stmt], at: Affine) -> "FusionUnit":
        """Embed statements after all current slots (a later statement)."""
        return FusionUnit(
            self.params, self.slots + (Embed(tuple(stmts), at),), self.loose, self.fixed
        )

    def with_embed_first(self, stmts: Sequence[Stmt], at: Affine) -> "FusionUnit":
        """Embed statements before all current slots (an earlier statement)."""
        return FusionUnit(
            self.params, (Embed(tuple(stmts), at),) + self.slots, self.loose, self.fixed
        )

    def describe(self) -> str:
        parts = []
        for slot in self.slots:
            if isinstance(slot, Member):
                label = slot.loop.label or f"for {slot.loop.index}"
                parts.append(f"{label}{'' if slot.shift == 0 else f'@{slot.shift:+d}'}")
            else:
                parts.append(f"embed@{slot.at}")
        if self.loose:
            parts.append(f"{len(self.loose)} loose stmt(s)")
        return " | ".join(parts) or "<empty>"
