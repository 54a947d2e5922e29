"""Reuse-based greedy loop fusion — the paper's Fig. 6 algorithm.

``_LevelFuser`` runs one level of fusion over a statement list:

* iterate statements first to last; for each, search backwards for the
  closest predecessor that shares data (``GreedilyFuse``);
* a non-loop statement is *embedded* into the predecessor loop at the
  iteration dictated by dependence and reuse (statement embedding);
* two loops are fused with the minimal legal *alignment* factor
  (``FusibleTest``), which may be negative;
* when no bounded alignment exists because conflicts pin the later loop's
  first iterations, those boundary iterations are *peeled off* (the
  paper's restricted iteration reordering) and fusion is retried;
* a unit that grows is immediately re-tested for further upward fusion;
* infusible pairs are memoized to avoid repeated tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ...analysis import (
    Conflict,
    ConflictKind,
    RefAccess,
    compute_alignment,
    depends,
    embed_after,
    embed_before,
    shares_data,
)
from ...lang import Assumptions, Loop, Stmt
from ...transform.subst import FreshNames
from .codegen import peel_iterations, unit_to_stmts
from .unit import AccessMemo, FusionUnit


@dataclass(frozen=True)
class FusionOptions:
    """Feature switches (the ablation benchmarks toggle these)."""

    embedding: bool = True  # statement embedding
    alignment: bool = True  # non-zero alignment factors
    splitting: bool = True  # peel boundary iterations and retry
    #: restrict to loops with identical bounds (the McKinley et al.
    #: baseline of §5; used by repro.baselines.mckinley)
    identical_bounds: bool = False


#: how many boundary iterations splitting may peel
_MAX_PEEL = 2


@dataclass
class FusionEvent:
    kind: str  # 'fuse' | 'embed' | 'peel'
    detail: str


@dataclass
class LevelReport:
    """What one level pass did."""

    loops_before: int = 0
    loops_after: int = 0
    #: fused units at the end of the pass (the paper's "157 loops -> 8"
    #: counts these, not the prologue/epilogue segments codegen emits)
    units_after: int = 0
    events: list[FusionEvent] = field(default_factory=list)
    infusible: list[str] = field(default_factory=list)

    def record(self, kind: str, detail: str) -> None:
        self.events.append(FusionEvent(kind, detail))


class _Item:
    _uid = 0

    def __init__(self, unit: FusionUnit, memo: AccessMemo) -> None:
        _Item._uid += 1
        self.uid = _Item._uid
        self.version = 0
        self.unit = unit
        self.memo = memo
        self._acc: Optional[list[RefAccess]] = None

    @property
    def accesses(self) -> list[RefAccess]:
        if self._acc is None:
            self._acc = self.unit.accesses(self.memo)
        return self._acc

    def update(self, unit: FusionUnit) -> None:
        self.unit = unit
        self.version += 1
        self._acc = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.uid, self.version)


class _LevelFuser:
    def __init__(
        self,
        params: Sequence[str],
        options: FusionOptions,
        fresh: FreshNames,
        report: LevelReport,
        access_memo: AccessMemo,
        fixed: Sequence[str] = (),
        assume: Assumptions | None = None,
    ) -> None:
        self.params = tuple(params)
        self.fixed = tuple(fixed) or tuple(params)
        self.assume = assume or Assumptions()
        self.options = options
        self.fresh = fresh
        self.report = report
        self.access_memo = access_memo
        self.memo: set[tuple[tuple[int, int], tuple[int, int]]] = set()
        self.items: list[_Item] = []

    # -- driver ---------------------------------------------------------------

    def _item(self, stmt: Stmt) -> _Item:
        make = FusionUnit.from_loop if isinstance(stmt, Loop) else FusionUnit.from_stmt
        return _Item(make(stmt, self.params, self.fixed), self.access_memo)

    def run(self, body: Sequence[Stmt]) -> list[Stmt]:
        self.items = [self._item(s) for s in body]
        self.report.loops_before = sum(i.unit.loop_count() for i in self.items)
        k = 0
        while k < len(self.items):
            if not self.greedily_fuse(k):
                k += 1
        self.report.loops_after = 0
        self.report.units_after = sum(
            1 for i in self.items if not i.unit.is_loose
        )
        out: list[Stmt] = []
        for item in self.items:
            label = None
            if len(item.unit.slots) > 1:
                label = f"fused{item.uid}"
            stmts = unit_to_stmts(item.unit, self.fresh, self.assume, label=label)
            for s in stmts:
                if isinstance(s, Loop):
                    self.report.loops_after += 1
            out.extend(stmts)
        return out

    def greedily_fuse(self, k: int) -> bool:
        """Try to fuse item ``k`` upward; True when the list changed."""
        if not 0 <= k < len(self.items):
            return False
        item = self.items[k]
        j = self._closest_sharer(k)
        if j is None:
            return False
        pred = self.items[j]
        pair = (pred.key, item.key)
        if pair in self.memo:
            return False
        changed = self._try_merge(j, k)
        if changed:
            return True
        self.memo.add(pair)
        return False

    def _closest_sharer(self, k: int) -> Optional[int]:
        acc = self.items[k].accesses
        for j in range(k - 1, -1, -1):
            if shares_data(self.items[j].accesses, acc):
                return j
        return None

    # -- merge cases --------------------------------------------------------

    def _try_merge(self, j: int, k: int) -> bool:
        pred, item = self.items[j], self.items[k]
        if item.unit.is_loose and not pred.unit.is_loose:
            return self._embed_later_stmt(j, k)
        if not item.unit.is_loose and pred.unit.is_loose:
            return self._embed_earlier_stmt(j, k)
        if item.unit.is_loose and pred.unit.is_loose:
            return False
        return self._fuse_loops(j, k)

    def _embed_later_stmt(self, j: int, k: int) -> bool:
        """Embed the non-loop item k into the predecessor unit j."""
        if not self.options.embedding:
            return False
        pred, item = self.items[j], self.items[k]
        point = embed_after(pred.accesses, item.accesses, self.assume)
        if not point.ok:
            self.report.infusible.append(
                f"embed {item.unit.describe()}: {point.reason}"
            )
            return False
        if point.at is None:
            return False  # unconstrained: leave it for a later consumer
        candidate = pred.unit.with_embed_last(item.unit.loose, point.at)
        if candidate.hull(self.assume) is None:
            self.report.infusible.append(
                f"embed {item.unit.describe()}: embedding point {point.at} "
                "not comparable with the fused bounds"
            )
            return False
        pred.update(candidate)
        del self.items[k]
        self.report.record(
            "embed", f"stmt -> {pred.unit.describe()} at {point.at}"
        )
        self.greedily_fuse(j)
        return True

    def _embed_earlier_stmt(self, j: int, k: int) -> bool:
        """Absorb the earlier non-loop item j into the later loop unit k.

        The statement moves *later*, past any items between j and k — legal
        only if it does not depend on them.
        """
        if not self.options.embedding:
            return False
        pred, item = self.items[j], self.items[k]
        for mid in range(j + 1, k):
            if depends(
                pred.accesses, self.items[mid].accesses, self.assume
            ) or depends(
                self.items[mid].accesses, pred.accesses, self.assume
            ):
                return False
        point = embed_before(pred.accesses, item.accesses, self.assume)
        if not point.ok or point.at is None:
            if not point.ok:
                self.report.infusible.append(
                    f"embed-before {pred.unit.describe()}: {point.reason}"
                )
            return False
        candidate = item.unit.with_embed_first(pred.unit.loose, point.at)
        if candidate.hull(self.assume) is None:
            self.report.infusible.append(
                f"embed-before {pred.unit.describe()}: embedding point "
                f"{point.at} not comparable with the fused bounds"
            )
            return False
        item.update(candidate)
        del self.items[j]
        self.report.record("embed", f"stmt -> {item.unit.describe()} at {point.at}")
        self.greedily_fuse(k - 1)
        return True

    def _fuse_loops(self, j: int, k: int) -> bool:
        pred, item = self.items[j], self.items[k]
        result = compute_alignment(pred.accesses, item.accesses, self.assume)
        if result.fusible:
            if self.options.identical_bounds and not self._same_bounds(pred, item):
                self.report.infusible.append(
                    f"{item.unit.describe()}: bounds differ (identical-bounds mode)"
                )
                return False
            if not self.options.alignment and result.alignment != 0:
                self.report.infusible.append(
                    f"{item.unit.describe()}: needs alignment "
                    f"{result.alignment} but alignment is disabled"
                )
                return False
            fused = pred.unit.fuse_with(item.unit, result.alignment)
            if fused.hull(self.assume) is None:
                self.report.infusible.append(
                    f"{item.unit.describe()}: fused bounds not comparable"
                )
                return False
            pred.update(fused)
            del self.items[k]
            self.report.record(
                "fuse",
                f"alignment {result.alignment:+d} -> {pred.unit.describe()}",
            )
            self.greedily_fuse(j)
            return True
        if self.options.splitting and self._try_peel(j, k, result.unbounded):
            return True
        self.report.infusible.append(f"{item.unit.describe()}: {result.reason}")
        return False

    def _same_bounds(self, pred: "_Item", item: "_Item") -> bool:
        spans = []
        for it in (pred, item):
            for m in it.unit.members:
                spans.append((m.fused_lo, m.fused_hi))
        lo0, hi0 = spans[0]
        for lo, hi in spans[1:]:
            if lo.compare(lo0, self.assume) != 0 or hi.compare(hi0, self.assume) != 0:
                return False
        return True

    # -- boundary splitting ------------------------------------------------------

    def _try_peel(self, j: int, k: int, conflicts: tuple[Conflict, ...]) -> bool:
        """Peel leading iterations of the later loop and retry fusion.

        Applies when every unbounded conflict pins the later unit to
        iterations within ``_MAX_PEEL`` of its lower bound; the peeled
        slices must be independent of the remaining core so they can run
        after the fused loop instead of before it.
        """
        item = self.items[k]
        if not item.unit.is_simple_loop():
            return False
        loop = item.unit.slots[0].loop
        lo = loop.lower.affine()
        peel = 0
        for c in conflicts:
            if c.kind not in (ConflictKind.PIN2, ConflictKind.PINS) or c.pin2 is None:
                return False
            offset = c.pin2 - lo
            if not offset.is_constant():
                return False
            distance = offset.int_value()
            if distance < 0 or distance >= _MAX_PEEL:
                return False
            peel = max(peel, distance + 1)
        if peel == 0:
            return False
        values = [lo + d for d in range(peel)]
        peeled_stmts = peel_iterations(
            loop, values, self.fresh, frozenset(self.params)
        )
        core = Loop(
            loop.index,
            loop.lower + peel,
            loop.upper,
            loop.body,
            label=loop.label,
        )
        core_item = self._item(core)
        peeled_items = [self._item(s) for s in peeled_stmts]
        # the peeled slices will execute after the core: check independence
        for p in peeled_items:
            if depends(p.accesses, core_item.accesses, self.assume):
                return False
            if depends(core_item.accesses, p.accesses, self.assume):
                return False
        self.items[k : k + 1] = [core_item] + peeled_items
        self.report.record(
            "peel", f"{loop.label or loop.index}: first {peel} iteration(s)"
        )
        return self._fuse_loops(j, k)
