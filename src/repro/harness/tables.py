"""Plain-text table rendering for benchmark output.

The benchmarks print the same rows the paper's figures and tables report;
these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def normalized_rows(
    results: Sequence, base_level: str = "noopt"
) -> list[list[object]]:
    """Fig. 10-style rows: metrics normalized to the base level.

    When no result carries ``base_level`` (e.g. a custom ``--passes``
    pipeline), the first result becomes the base — its normalized
    columns read 1.00 and the rest are relative to it.
    """
    base = next((r for r in results if r.level == base_level), results[0])
    rows: list[list[object]] = []
    for r in results:
        norm = r.stats.normalized_to(base.stats)
        rows.append(
            [
                r.level,
                norm["time"],
                norm["l1"],
                norm["l2"],
                norm["tlb"],
                r.stats.l1_misses,
                r.stats.l2_misses,
                r.stats.tlb_misses,
            ]
        )
    return rows


NORMALIZED_HEADERS = (
    "level",
    "time/base",
    "L1/base",
    "L2/base",
    "TLB/base",
    "L1 misses",
    "L2 misses",
    "TLB misses",
)


#: Canonical stage order for :func:`timing_rows`.
TIMING_STAGES = (
    "compile", "trace-gen", "addresses", "l1", "l2", "tlb", "dram", "distance"
)

TIMING_HEADERS = ("level",) + TIMING_STAGES + ("total",)


def timing_rows(results: Sequence) -> list[list[object]]:
    """Per-stage wall-clock rows from results carrying a ``timings`` dict.

    Stages a result skipped (e.g. a cache hit never re-traces) render as
    ``-`` so a warm run is visibly cheaper than a cold one.  ``compile``
    is never skipped, but reads ≈ 0 when the level was already compiled
    in this process: a pass runs once per source program, charged to the
    row whose walk executed it, so of levels sharing a prefix (``fusion1``,
    ``fusion``, ``new``) the first listed pays for it.
    """
    rows: list[list[object]] = []
    for r in results:
        timings = getattr(r, "timings", None) or {}
        row: list[object] = [r.level]
        for stage in TIMING_STAGES:
            row.append(timings[stage] if stage in timings else "-")
        row.append(sum(timings.values()))
        rows.append(row)
    return rows


def ratio(a: float, b: float) -> float:
    return a / b if b else (0.0 if a == 0 else float("inf"))


def geometric_mean(values: Sequence[float]) -> float:
    clean = [v for v in values if v > 0]
    if not clean:
        return 0.0
    prod = 1.0
    for v in clean:
        prod *= v
    return prod ** (1.0 / len(clean))
