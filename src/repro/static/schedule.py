"""OpenMP loop-schedule partitioning, shared by prediction and replay.

One implementation of "which thread runs which iterations" serves both
sides of the multicore cross-validation — the static predictor
(``repro.static.multicore``) and the interleaved enumerator
(``repro.interp.interleave``) — plus the coherence analyzer's screens
and witness lookup.  This module imports nothing from the interpreter;
``repro.interp.interleave`` and ``repro.static.coherence`` import each
other's packages inside functions only, so there is no import cycle.

Supported schedule specs (OpenMP ``schedule`` clause syntax):

``static``
    one contiguous ceil-sized block per thread — the OpenMP default.
``static,k``
    size-``k`` chunks dealt round-robin: chunk ``c`` runs on thread
    ``c % T``, on every invocation (affinity preserved).
``guided``
    decreasing chunks of ``ceil(remaining / T)`` iterations, dealt
    round-robin.  A real guided runtime assigns chunks first-come; this
    deterministic stand-in keeps the chunk *sizes* and gives chunk
    ``c`` to thread ``c % T``, so repeated invocations preserve
    affinity and the replay is reproducible.
``dynamic``
    the block partition of ``static`` with the thread assignment
    rotated by one per invocation — a deterministic stand-in for a
    work-stealing runtime that destroys chunk affinity without
    destroying the partition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: schedule kinds accepted by :func:`parse_schedule` (``static`` also
#: accepts a ``,k`` chunk-size suffix)
SCHEDULE_KINDS = ("static", "dynamic", "guided")


def parse_schedule(spec: str) -> tuple[str, int]:
    """Parse an OpenMP-style schedule spec into ``(kind, chunk)``.

    ``chunk`` is 0 when the schedule uses its default blocking
    (``static`` = one block per thread, ``guided`` = decreasing
    blocks).  Only ``static`` takes an explicit chunk size.
    """
    s = str(spec).strip().lower()
    kind, sep, rest = s.partition(",")
    kind = kind.strip()
    if kind not in SCHEDULE_KINDS:
        raise ValueError(
            f"unknown schedule {spec!r}; expected one of "
            f"{SCHEDULE_KINDS} (static also takes 'static,k')"
        )
    if not sep:
        return kind, 0
    if kind != "static":
        raise ValueError(
            f"schedule {spec!r}: only 'static' takes a chunk size"
        )
    try:
        chunk = int(rest.strip())
    except ValueError:
        raise ValueError(
            f"schedule {spec!r}: chunk size must be an integer"
        ) from None
    if chunk < 1:
        raise ValueError(f"schedule {spec!r}: chunk size must be >= 1")
    return kind, chunk


def preserves_affinity(spec: str) -> bool:
    """Does the schedule hand the same iterations to the same thread on
    every invocation?  True for ``static`` (any chunk size) and the
    deterministic ``guided`` model; false for ``dynamic``."""
    kind, _ = parse_schedule(spec)
    return kind != "dynamic"


def schedule_assignments(
    lo: int,
    hi: int,
    threads: int,
    schedule: str = "static",
    invocation: int = 0,
) -> list[tuple[int, int, int]]:
    """The chunk list of one parallel loop: ``(first, last, thread)``
    triples in chunk order, covering the inclusive range [lo, hi].

    ``invocation`` only matters for ``dynamic``, whose assignment
    rotates by one per parallel-nest invocation.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    kind, chunk = parse_schedule(schedule)
    n = hi - lo + 1
    if n <= 0:
        return []
    out: list[tuple[int, int, int]] = []
    if kind in ("static", "dynamic") and chunk == 0:
        size = -(-n // threads)  # ceil: the OpenMP default block
        for t in range(threads):
            a = lo + t * size
            b = min(hi, a + size - 1)
            if a <= b:
                tt = (t + invocation) % threads if kind == "dynamic" else t
                out.append((a, b, tt))
        return out
    if kind == "static":  # static,k: fixed chunks dealt round-robin
        c, a = 0, lo
        while a <= hi:
            b = min(hi, a + chunk - 1)
            out.append((a, b, c % threads))
            a = b + 1
            c += 1
        return out
    # guided: ceil(remaining / T), never below 1, dealt round-robin
    c, a = 0, lo
    while a <= hi:
        size = max(1, -(-(hi - a + 1) // threads))
        b = min(hi, a + size - 1)
        out.append((a, b, c % threads))
        a = b + 1
        c += 1
    return out


def schedule_chunks(
    lo: int,
    hi: int,
    threads: int,
    schedule: str = "static",
    invocation: int = 0,
) -> list[list[tuple[int, int]]]:
    """Per-thread chunk lists: entry ``t`` holds thread ``t``'s
    inclusive ``(first, last)`` chunks in execution order."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(threads)]
    for a, b, t in schedule_assignments(lo, hi, threads, schedule, invocation):
        out[t].append((a, b))
    return out


def round_robin_positions(lengths: Sequence[int]) -> list[np.ndarray]:
    """Where a round-robin merge puts every access: entry ``i`` holds the
    merged position of each access of stream ``i``, in the stream's own
    order.  Round ``r`` of the drain takes access ``r`` from every
    stream that still has one, streams in index order; a stream drops
    out once drained (threads with smaller chunks finish early and wait
    at the barrier), so zero-length and ragged streams need no special
    case.

    Access ``j`` of stream ``i`` lands at (accesses rounds ``< j``
    drained from all streams) + (streams ``k < i`` that reach round
    ``j``).  Both counts are kept as per-round tallies carried from one
    stream to the next, so the cost is a handful of vector operations
    per stream on arrays no longer than that stream: no Python work per
    access, no ``streams x streams`` loop (``threads`` goes to 63), no
    ``streams x length`` temporary and no sort.  Positions are strictly
    increasing within every stream and together a permutation of
    ``range(sum(lengths))``.

    This is the interleaving contract of the one multi-thread
    enumerator (``repro.interp.interleave``), and through it of the
    coherence analyzer and the MSI oracle.
    """
    # taken[r]: streams seen so far that reach round r
    taken = np.zeros(max(lengths, default=0), dtype=np.int64)
    before = []
    for n in lengths:
        before.append(taken[:n].copy())
        taken[:n] += 1
    round_base = np.cumsum(taken) - taken
    return [round_base[:n] + earlier for n, earlier in zip(lengths, before)]
