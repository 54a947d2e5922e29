"""Vectorized cache-simulation engine (the ``fast`` engine).

The scalar loops in :mod:`repro.memsim.cache` are exact but spend
hundreds of nanoseconds per access in the interpreter.  This module
re-derives the same per-access miss masks and write-back counts with
numpy primitives, exploiting five structural facts about LRU caches:

1. **Run-length compression.**  Consecutive accesses to the same line
   are guaranteed hits that leave the LRU state unchanged apart from
   OR-ing the dirty bit, so the stream can be compressed to run heads
   before simulation and the miss mask scattered back afterwards.

2. **Set-partitioned shift comparison.**  Restricted to one set, an
   A-way LRU cache holds exactly the A most recently used distinct
   lines.  After a stable sort by set index, a direct-mapped miss is
   simply ``line[i] != line[i-1]`` within the set's subsequence, and —
   once consecutive in-set duplicates are removed — a 2-way miss is
   ``line[i] != line[i-2]``.  (The shift trick stops at 2 ways: the
   third most recent *distinct* line can sit arbitrarily far back.  From
   3 ways on, the same sorted stream goes through the reuse-distance
   kernel: lines never cross sets and each set's subsequence is
   contiguous, so the stack distance within the set is the distance in
   the sorted stream, and an access misses iff it is cold or its
   distance reaches the associativity.)

3. **Residency-segment write-backs.**  For any LRU geometry, a line is
   written back exactly once per *dirty residency*: the span from one of
   its misses up to (exclusive) its next miss, or the end of the trace
   (the final flush).  Given the miss mask, write-backs are therefore a
   segmented any-write reduction over per-line access sequences — no
   eviction ordering needed.

4. **Near/far split (fully associative).**  An access hits iff fewer
   than ``capacity`` distinct lines were touched since the previous
   access to its line (its stack distance, paper §2.1).  Call that pair
   of run heads a *link* ``(p, t)``.  The distance is at most the gap
   ``t - p - 1``, so a link shorter than the capacity — a *near* link —
   is a hit with no further work; on the Fig. 10 page streams that
   settles 83 % to over 99 % of the heads.  What is left is *far*: cold
   heads, which miss, and far links, which need the count.

5. **Counting by what is absent.**  Of the lines first touched before
   ``t``, one is ``t``'s own, some were touched for the last time at or
   before ``p`` (*retired*), and every other one either shows up inside
   the window ``(p, t)`` or skips it: its link ``(p', t')`` starts
   before ``p`` and ends after ``t``.  A link that encloses a far link
   is longer still, hence far itself, so ::

       distinct(p, t) = first-touched-before(t) - 1
                        - retired-by(p)
                        - #{far links (p', t') : p' < p and t' > t}

   The first two terms are binary searches in the sorted first and last
   positions of each line; the third is a per-element inversion count of
   the far links' ``p`` column in time order —
   ``locality.reuse_distance.prior_greater``, the kernel under
   ``reuse_distances``, run on the far subsequence only.  Near links
   never enter any term, which is why answering one capacity is cheaper
   than knowing every distance: the inversion count runs over 0.1–17 % of
   the run heads, and nothing is sized by the number of distinct lines.

``fa_miss_counts`` derives the misses of *every* capacity from one full
distance profile (the reuse-distance methodology of Fig. 3).

Every path is bit-identical to the reference engine; the property tests
in ``tests/properties/test_engine_props.py`` pin that equivalence on
random streams.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..locality.reuse_distance import COLD, miss_count, prior_greater, reuse_distances
from ..obs import metrics
from .cache import CacheConfig, CacheResult


def simulate_fast(config: CacheConfig, lines: np.ndarray, writes: np.ndarray) -> CacheResult:
    """Vectorized equivalent of the scalar dispatch in ``cache.py``."""
    metrics.inc("engine.fast.calls")
    n = len(lines)
    if n == 0:
        return CacheResult(np.zeros(0, dtype=bool), 0)

    # Run-length compression: only run heads can miss, dirty bits OR.
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    hpos = np.flatnonzero(head)
    clines = lines[hpos]
    track_wb = bool(writes.any())
    cwrites = (
        np.logical_or.reduceat(writes, hpos)
        if track_wb
        else np.zeros(len(hpos), dtype=bool)
    )

    work = {"heads": len(hpos)}
    if config.assoc == 0 or config.num_sets == 1:
        cmiss, work["far"] = _fa_miss_mask(clines, config.ways)
    elif config.assoc == 1:
        cmiss = _direct_mapped_miss_mask(clines, config.num_sets)
    elif config.assoc == 2:
        cmiss = _two_way_miss_mask(clines, config.num_sets)
    else:
        cmiss = _n_way_miss_mask(clines, config.num_sets, config.assoc)

    writebacks = residency_writebacks(clines, cmiss, cwrites) if track_wb else 0
    # Scatter the run-head miss mask back to per-access granularity.
    miss = np.zeros(n, dtype=bool)
    miss[hpos] = cmiss
    return CacheResult(miss, writebacks, work)


def _sort_key(values: np.ndarray, max_value: int) -> np.ndarray:
    """Cast to the narrowest signed dtype (radix sort gets much faster)."""
    if max_value < 2**15:
        return values.astype(np.int16)
    if max_value < 2**31:
        return values.astype(np.int32)
    return values


def residency_writebacks(
    lines: np.ndarray, miss: np.ndarray, writes: np.ndarray
) -> int:
    """Write-backs from a miss mask via dirty-residency counting.

    Valid for every LRU geometry (see module docstring, fact 3): group
    accesses by line, split each line's sequence at its misses, and
    count the segments containing at least one write.
    """
    if not writes.any():
        return 0
    key = _sort_key(lines, int(lines.max()) if len(lines) else 0)
    order = np.argsort(key, kind="stable")
    miss_l = miss[order]
    # A line's first access is always a miss, so cumsum(miss) segments
    # never straddle two lines.
    seg = np.cumsum(miss_l)
    dirty = np.zeros(int(seg[-1]) + 1, dtype=bool)
    dirty[seg[writes[order]]] = True
    return int(dirty.sum())


def _direct_mapped_miss_mask(lines: np.ndarray, num_sets: int) -> np.ndarray:
    sets = _sort_key(lines % num_sets, num_sets - 1)
    order = np.argsort(sets, kind="stable")
    ls = lines[order]
    ss = sets[order]
    miss_sorted = np.empty(len(ls), dtype=bool)
    miss_sorted[0] = True
    np.not_equal(ss[1:], ss[:-1], out=miss_sorted[1:])
    miss_sorted[1:] |= ls[1:] != ls[:-1]
    miss = np.empty(len(ls), dtype=bool)
    miss[order] = miss_sorted
    return miss


def _two_way_miss_mask(lines: np.ndarray, num_sets: int) -> np.ndarray:
    sets = _sort_key(lines % num_sets, num_sets - 1)
    order = np.argsort(sets, kind="stable")
    ls = lines[order]
    ss = sets[order]
    n = len(ls)
    # In-set runs of the same line: only run heads can miss.  (Global
    # RLE leaves such runs when accesses from other sets interleave.)
    rhead = np.empty(n, dtype=bool)
    rhead[0] = True
    np.not_equal(ss[1:], ss[:-1], out=rhead[1:])
    rhead[1:] |= ls[1:] != ls[:-1]
    hpos = np.flatnonzero(rhead)
    hl = ls[hpos]
    hs = ss[hpos]
    # Deduplicated in-set sequence: the 2-way set holds exactly the last
    # two distinct lines, which are the two previous heads; hit iff the
    # line equals the head two back *within the same set*.
    miss_h = np.ones(len(hpos), dtype=bool)
    if len(hpos) > 2:
        np.not_equal(hs[2:], hs[:-2], out=miss_h[2:])
        miss_h[2:] |= hl[2:] != hl[:-2]
    miss_sorted = np.zeros(n, dtype=bool)
    miss_sorted[hpos] = miss_h
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_sorted
    return miss


def _n_way_miss_mask(lines: np.ndarray, num_sets: int, assoc: int) -> np.ndarray:
    """Set-associative LRU miss mask for any associativity (fact 2)."""
    metrics.inc("engine.fast.n_way_distance")
    sets = _sort_key(lines % num_sets, num_sets - 1)
    order = np.argsort(sets, kind="stable")
    distances = reuse_distances(lines[order])
    miss = np.empty(len(lines), dtype=bool)
    miss[order] = (distances == COLD) | (distances >= assoc)
    return miss


def _fa_miss_mask(lines: np.ndarray, capacity: int) -> tuple[np.ndarray, int]:
    """Fully-associative LRU miss mask of an RLE-compressed stream, and
    how many *far* heads the gap filter left open (module docstring)."""
    m = len(lines)
    lo = int(lines.min())
    key = _sort_key(lines - lo, int(lines.max()) - lo)
    # Grouped by line with positions ascending: neighbours inside a group
    # are the links (previous head of the line, head).
    order = np.argsort(key, kind="stable")
    grouped = key[order]
    opens = np.empty(m, dtype=bool)  # first head of its line: cold
    opens[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    first = order[starts]
    last = order[np.append(starts[1:], m) - 1]
    miss = np.zeros(m, dtype=bool)
    miss[first] = True

    # Positions fit int32 (traces are < 2**31 accesses), halving traffic.
    pos = order.astype(np.int32)
    far = np.flatnonzero((pos[1:] - pos[:-1] > capacity) & ~opens[1:])
    if len(far) == 0:
        return miss, 0
    p, t = pos[far], pos[far + 1]
    by_time = np.argsort(t)
    p, t = p[by_time], t[by_time]
    seen = np.searchsorted(np.sort(first), t)
    retired = np.searchsorted(np.sort(last), p)
    # #{later far links with an earlier start} = #{earlier, greater} on
    # the reversed, negated column
    enclosing = prior_greater((m - 1 - p)[::-1], m)[::-1]
    miss[t[seen - 1 - retired - enclosing >= capacity]] = True
    return miss, len(far)


def fa_miss_counts(
    keys: Sequence[int] | np.ndarray, capacities: Sequence[int]
) -> dict[int, int]:
    """Fully-associative LRU misses at every capacity from one profile.

    One reuse-distance pass (``locality.reuse_distances``) predicts
    the whole capacity spectrum — the classic use of stack distances and
    the reason a distance profile is worth caching.  Equivalent to (but
    far cheaper than) simulating ``simulate_cache`` once per capacity.
    """
    distances = reuse_distances(keys)
    return {int(c): miss_count(distances, int(c)) for c in capacities}
