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
issuing threads).  It is deliberately no
:class:`~repro.memsim.levels.MemoryLevel`: the hierarchy streams chunks,
and the automaton's thread column belongs to the whole interleaved
stream.
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


#: thread ids are bits of an int64 mask
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
    bool write mask, ``thread_ids`` the issuing thread of every access.
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
    uniq, compact = (
        np.unique(lines, return_inverse=True)
        if n
        else (np.empty(0, np.int64), np.empty(0, np.int64))
    )
    valid = np.zeros(len(uniq), dtype=np.int64)  # V as a thread bitmask
    ever = np.zeros(len(uniq), dtype=np.int64)  # E as a thread bitmask
    cold = np.zeros(threads, dtype=np.int64)
    inval = np.zeros(threads, dtype=np.int64)
    upgrades = np.zeros(threads, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    compact_l = compact.tolist()
    writes_l = writes.tolist()
    tids_l = thread_ids.tolist()
    valid_l = valid.tolist()
    ever_l = ever.tolist()
    for i in range(n):
        line = compact_l[i]
        t = tids_l[i]
        bit = 1 << t
        v = valid_l[line]
        if not v & bit:
            if ever_l[line] & bit:
                inval[t] += 1
                mask[i] = True
            else:
                cold[t] += 1
        if writes_l[i]:
            if v & ~bit:
                upgrades[t] += 1
            valid_l[line] = bit
        else:
            valid_l[line] = v | bit
        ever_l[line] |= bit
    return MSIResult(
        threads=threads,
        accesses=n,
        lines=len(uniq),
        cold=cold,
        invalidations=inval,
        upgrades=upgrades,
        invalidation_mask=mask,
    )
