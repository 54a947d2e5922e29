"""Multi-level fusion: apply the level pass outermost-to-innermost (§4.1).

The paper fuses level by level from the outermost loop level inward.  We
fuse the top-level statement list (level 1), then recurse into every loop
produced — including loops inside guards from the fallback emitter — and
fuse their bodies (level 2), and so on up to ``max_levels``.

When descending into a loop, its index becomes a *fixed* symbolic
constant for the inner level; its provable lower bound is added to the
comparison assumptions so inner-level ``FusibleTest``s can still decide
bound orderings soundly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ...lang import Assumptions, Guard, Loop, Program, Stmt
from ...transform.subst import FreshNames, bound_names
from .greedy import FusionOptions, LevelReport, _LevelFuser
from .unit import AccessMemo


@dataclass
class FusionReport:
    """Aggregated report over all levels."""

    levels: list[LevelReport] = field(default_factory=list)

    def loops_before(self, level: int) -> int:
        return self.levels[level - 1].loops_before if level <= len(self.levels) else 0

    def loops_after(self, level: int) -> int:
        return self.levels[level - 1].loops_after if level <= len(self.levels) else 0

    def total_events(self) -> int:
        return sum(len(lr.events) for lr in self.levels)

    def summary(self) -> str:
        lines = []
        for depth, lr in enumerate(self.levels, start=1):
            lines.append(
                f"level {depth}: {lr.loops_before} loops -> {lr.units_after} "
                f"fused units ({lr.loops_after} emitted loops, "
                f"{len(lr.events)} transformations)"
            )
        return "\n".join(lines)


class _MultiLevel:
    def __init__(
        self, params: Sequence[str], options: FusionOptions, max_levels: int
    ) -> None:
        self.params = tuple(params)
        self.options = options
        self.max_levels = max_levels
        self.fresh = FreshNames(set(params))
        #: shared by every level of the run; the owner publishes it
        self.access_memo = AccessMemo()
        #: one merged LevelReport per depth
        self.reports: dict[int, LevelReport] = {}

    def _merge(self, depth: int, report: LevelReport) -> None:
        agg = self.reports.setdefault(depth, LevelReport())
        agg.loops_before += report.loops_before
        agg.loops_after += report.loops_after
        agg.units_after += report.units_after
        agg.events.extend(report.events)
        agg.infusible.extend(report.infusible)

    def fuse_body(
        self,
        body: Sequence[Stmt],
        depth: int,
        fixed: tuple[str, ...],
        assume: Assumptions,
    ) -> list[Stmt]:
        if depth <= self.max_levels:
            report = LevelReport()
            new_body = _LevelFuser(
                self.params, self.options, self.fresh, report,
                self.access_memo, fixed, assume,
            ).run(body)
            self._merge(depth, report)
        else:
            new_body = list(body)
        return [self.descend(s, depth, fixed, assume) for s in new_body]

    def descend(
        self,
        stmt: Stmt,
        depth: int,
        fixed: tuple[str, ...],
        assume: Assumptions,
    ) -> Stmt:
        if isinstance(stmt, Loop):
            low = stmt.lower.affine().lower_bound(assume)
            minimum = None if low is None else int(low)
            inner_fixed = fixed + (stmt.index,)
            inner_assume = assume.with_var(stmt.index, minimum)
            return stmt.with_body(
                self.fuse_body(stmt.body, depth + 1, inner_fixed, inner_assume)
            )
        if isinstance(stmt, Guard):
            return replace(
                stmt,
                body=tuple(self.fuse_body(stmt.body, depth, fixed, assume)),
                else_body=tuple(self.fuse_body(stmt.else_body, depth, fixed, assume)),
            )
        return stmt


def fuse_program(
    program: Program,
    max_levels: int = 8,
    options: Optional[FusionOptions] = None,
) -> tuple[Program, FusionReport]:
    """Apply reuse-based loop fusion to a whole program.

    ``max_levels=1`` reproduces the paper's "one-level fusion" variant for
    SP; the default fuses every level.
    """
    options = options or FusionOptions()
    engine = _MultiLevel(program.params, options, max_levels)
    engine.fresh.reserve(bound_names(program.body))
    assume = Assumptions()
    new_body = engine.fuse_body(program.body, 1, tuple(program.params), assume)
    engine.access_memo.publish()
    report = FusionReport(
        levels=[engine.reports[d] for d in sorted(engine.reports)]
    )
    return program.with_body(new_body), report
