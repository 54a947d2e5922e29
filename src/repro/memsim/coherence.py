"""Per-line MSI coherence oracle (the dynamic side of sharing analysis).

Replays an interleaved multi-thread access stream at cache-line
granularity through the minimal owner-tracking view of an MSI
(Modified / Shared / Invalid) protocol:

* each line has a *valid set* ``V`` — the threads currently holding a
  readable copy — and an *ever set* ``E`` — the threads that have held
  one at any point;
* a read by thread ``t`` hits iff ``t ∈ V`` and adds ``t`` to ``V``
  (S state is shared freely among readers);
* a write by thread ``t`` invalidates every other copy: ``V = {t}``
  (M state is exclusive);
* a miss (``t ∉ V``) is a **cold miss** when ``t ∉ E`` (the thread
  never held the line) and an **invalidation miss** when ``t ∈ E``
  (the thread held the line and another thread's write took it away).

Capacity is deliberately infinite: the oracle isolates *coherence*
misses from capacity misses, which the reuse-distance machinery already
models.  This is the one MSI automaton: the coherence analyzer
(``repro.static.coherence``) runs :func:`simulate_msi` over the
interleaver's stream and classifies its ``invalidation_mask`` into true
and false sharing, so analyzer and oracle counts agree by construction
(DESIGN §10).

The oracle is :func:`simulate_msi` on raw columns (line ids, writes,
issuing threads).  It is deliberately not a level of
:class:`~repro.memsim.MemoryHierarchy`: the hierarchy streams one
thread's chunks, and the automaton's thread column belongs to the whole
interleaved stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MSIResult:
    """Outcome of one MSI replay over an interleaved stream."""

    threads: int
    accesses: int
    #: distinct lines the stream touched
    lines: int
    #: per-thread compulsory line misses (first touch by that thread)
    cold: np.ndarray
    #: per-thread invalidation misses (line lost to another's write)
    invalidations: np.ndarray
    #: per-thread writes that invalidated at least one other copy
    upgrades: np.ndarray
    #: bool per access: True where the access was an invalidation miss
    invalidation_mask: np.ndarray

    @property
    def total_cold(self) -> int:
        return int(self.cold.sum())

    @property
    def total_invalidations(self) -> int:
        return int(self.invalidations.sum())

    @property
    def total_upgrades(self) -> int:
        return int(self.upgrades.sum())


#: the contract's V and E sets are one int64 bitmask per line (DESIGN §10.2)
MAX_THREADS = 63


def check_threads(threads: int) -> int:
    """The automaton's thread-count rule: ``1..MAX_THREADS``."""
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(
            f"threads must be in 1..{MAX_THREADS} (the MSI automaton "
            f"keeps one bit per thread), got {threads}"
        )
    return threads


def simulate_msi(
    lines: np.ndarray,
    writes: np.ndarray,
    thread_ids: np.ndarray,
    threads: int,
) -> MSIResult:
    """Replay the stream through the owner-tracking MSI automaton.

    ``lines`` are cache-line ids (any integer labels), ``writes`` the
    bool write mask, ``thread_ids`` the issuing thread of every access,
    each in ``0..threads-1``.  Lines never interact, so the automaton runs
    as array operations over the accesses stably sorted by line: a thread
    hits iff its previous access to the line is at or after the line's
    last earlier write, and a write upgrades iff another thread's last
    earlier access is.
    """
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    thread_ids = np.asarray(thread_ids, dtype=np.int64)
    n = len(lines)
    if len(writes) != n or len(thread_ids) != n:
        raise ValueError(
            f"column lengths differ: lines {n}, writes {len(writes)}, "
            f"threads {len(thread_ids)}"
        )
    check_threads(threads)
    bad = thread_ids[(thread_ids < 0) | (thread_ids >= threads)]
    if len(bad):
        raise ValueError(
            f"thread id {bad[0]} out of range: with {threads} threads "
            f"every id must be in 0..{threads - 1}"
        )
    order = np.argsort(lines, kind="stable")
    line, write, tid = lines[order], writes[order], thread_ids[order]
    pos = np.arange(n)
    first = np.ones(n, dtype=bool)  # the line's first access
    first[1:] = line[1:] != line[:-1]
    line_start = np.maximum.accumulate(np.where(first, pos, 0))
    # the last earlier write; one before ``line_start`` is another line's
    # and, like -1, precedes every access to this line
    last_write = np.full(n, -1)
    last_write[1:] = np.maximum.accumulate(np.where(write, pos, -1))[:-1]
    key = np.cumsum(first) * threads + tid  # (line, thread)
    by_thread = np.argsort(key, kind="stable")
    same = key[by_thread[1:]] == key[by_thread[:-1]]
    prev_same = np.full(n, -1)  # the thread's previous access to the line
    prev_same[by_thread[1:][same]] = by_thread[:-1][same]
    run = first.copy()  # another thread's last access precedes this run
    run[1:] |= tid[1:] != tid[:-1]
    prev_other = np.maximum.accumulate(np.where(run, pos, 0)) - 1
    cold = prev_same < 0
    inval = ~cold & (prev_same < last_write)
    upgrade = write & (prev_other >= line_start) & (prev_other >= last_write)
    mask = np.zeros(n, dtype=bool)
    mask[order] = inval
    return MSIResult(
        threads=threads,
        accesses=n,
        lines=int(first.sum()),
        cold=np.bincount(tid[cold], minlength=threads),
        invalidations=np.bincount(tid[inval], minlength=threads),
        upgrades=np.bincount(tid[upgrade], minlength=threads),
        invalidation_mask=mask,
    )
