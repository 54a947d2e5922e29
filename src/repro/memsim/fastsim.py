"""Vectorized cache-simulation engine (the ``fast`` engine).

The scalar loops in :mod:`repro.memsim.cache` are exact but spend
hundreds of nanoseconds per access in the interpreter.  This module
re-derives the same per-access miss masks and write-back counts with
numpy primitives, exploiting three structural facts about LRU caches:

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

The fully-associative path determines each access's stack distance —
the number of distinct lines touched since the previous access to the
same line (paper §2.1); the access hits iff that distance is below the
capacity.  Distances are resolved hierarchically: a gap filter settles
short reuses, dyadic per-block occupancy bitmasks bound the rest, and
only the residual ambiguous accesses pay for an exact bit-level count.
It answers one capacity, which is cheaper than knowing every distance
(about 4x on the TLB's page streams); streams whose occupancy table
would not fit the memory budget take the exact distances from
``locality.reuse_distances`` instead.
``fa_miss_counts`` derives the misses of *every* capacity from one such
distance profile (the reuse-distance methodology of Fig. 3).

Every path is bit-identical to the reference engine; the property tests
in ``tests/properties/test_engine_props.py`` pin that equivalence on
random streams.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..locality.reuse_distance import COLD, miss_count, reuse_distances
from ..obs import metrics
from .cache import CacheConfig, CacheResult

#: Upper bound on the sparse-table footprint of the fully-associative
#: fast path (bytes); streams that would exceed it use exact distances.
_FA_TABLE_BYTES = 96 * 1024 * 1024
#: Positions per occupancy-bitmask block (fully-associative path).
_FA_BLOCK = 32


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

    if config.assoc == 0 or config.num_sets == 1:
        cmiss = _fa_miss_mask(clines, config.ways)
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
    return CacheResult(miss, writebacks)


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


def _distance_miss_mask(lines: np.ndarray, ways: int) -> np.ndarray:
    """LRU misses from exact stack distances: cold, or ``ways`` lines since."""
    distances = reuse_distances(lines)
    return (distances == COLD) | (distances >= ways)


def _n_way_miss_mask(lines: np.ndarray, num_sets: int, assoc: int) -> np.ndarray:
    """Set-associative LRU miss mask for any associativity (fact 2)."""
    metrics.inc("engine.fast.n_way_distance")
    sets = _sort_key(lines % num_sets, num_sets - 1)
    order = np.argsort(sets, kind="stable")
    miss = np.empty(len(lines), dtype=bool)
    miss[order] = _distance_miss_mask(lines[order], assoc)
    return miss


def _fa_miss_mask(lines: np.ndarray, capacity: int) -> np.ndarray:
    """Fully-associative LRU miss mask (stream already RLE-compressed)."""
    m = len(lines)
    lo = int(lines.min())
    hi = int(lines.max())
    if lo >= 0 and hi < max(4 * m, 1 << 16):
        ids = lines
        nids = hi + 1
    else:
        # Sparse/arbitrary line numbers: densify once.
        _, ids = np.unique(lines, return_inverse=True)
        nids = int(ids.max()) + 1

    # Previous occurrence of each line (grouped stable sort + shift).
    # Positions fit int32 (traces are < 2**31 accesses), halving traffic.
    key = _sort_key(ids, nids - 1)
    order = np.argsort(key, kind="stable")
    ids_s = key[order]
    same = ids_s[1:] == ids_s[:-1]
    prev = np.full(m, -1, dtype=np.int32)
    prev[order[1:][same]] = order[:-1][same]

    t = np.arange(m, dtype=np.int32)
    gap = t - prev - 1
    # Stack distance <= gap, so a short gap is a guaranteed hit.
    miss = (prev < 0) | (gap >= capacity)
    cand = np.flatnonzero((prev >= 0) & (gap >= capacity))
    if len(cand) == 0:
        return miss

    words = (nids + 1 + 63) >> 6  # +1 for the padding sentinel id
    nblocks = -(-m // _FA_BLOCK)
    levels = max(1, nblocks.bit_length())
    if words * nblocks * (levels + 1) * 8 > _FA_TABLE_BYTES or len(cand) > m:
        metrics.inc("engine.fast.fa_distance")
        return _distance_miss_mask(lines, capacity)

    decided = _fa_resolve_candidates(
        ids, prev[cand], t[cand], capacity, nids, words, nblocks
    )
    miss[cand] = decided
    return miss


def _fa_resolve_candidates(
    ids: np.ndarray,
    p: np.ndarray,
    t: np.ndarray,
    capacity: int,
    nids: int,
    words: int,
    nblocks: int,
) -> np.ndarray:
    """True where the stack distance over the window ``(p, t)`` >= capacity.

    Builds a dyadic sparse table of per-block line-occupancy bitmasks,
    bounds each window's distinct count from block-aligned inner/outer
    spans, and resolves the residual ambiguous windows exactly by OR-ing
    the partial edge blocks bit by bit.
    """
    B = _FA_BLOCK
    m = len(ids)
    pad = nblocks * B - m
    ids_p = np.concatenate([ids, np.full(pad, nids, dtype=ids.dtype)]) if pad else ids

    # Level-0 occupancy masks, then dyadic OR doubling (idempotent, so
    # two overlapping power-of-two spans cover any block range exactly).
    table = [np.zeros((nblocks, words), dtype=np.uint64)]
    widx = ids_p >> 6
    bit = np.uint64(1) << (ids_p & 63).astype(np.uint64)
    for w in range(words):
        vals = np.where(widx == w, bit, np.uint64(0))
        table[0][:, w] = np.bitwise_or.reduce(vals.reshape(nblocks, B), axis=1)
    k = 1
    while (1 << k) <= nblocks:
        half = 1 << (k - 1)
        prev_t = table[k - 1]
        table.append(prev_t[: nblocks - (1 << k) + 1] | prev_t[half:][: nblocks - (1 << k) + 1])
        k += 1

    def range_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """OR of blocks [a, b) per query; b > a required."""
        length = b - a
        out = np.zeros((len(a), words), dtype=np.uint64)
        lev = np.frexp(length.astype(np.float64))[1] - 1  # floor(log2)
        for ell in np.unique(lev):
            sel = lev == ell
            span = 1 << int(ell)
            tab = table[int(ell)]
            out[sel] = tab[a[sel]] | tab[b[sel] - span]
        return out

    popcount = lambda masks: np.bitwise_count(masks).sum(axis=1).astype(np.int64)

    # Inner (block-aligned, subset of window) and outer (superset) spans.
    win_lo = p + 1  # first window position
    b_in_lo = -(-win_lo // B)
    b_in_hi = t // B
    b_out_lo = win_lo // B
    b_out_hi = (t - 1) // B + 1

    has_inner = b_in_hi > b_in_lo
    lower = np.zeros(len(p), dtype=np.int64)
    if has_inner.any():
        lower[has_inner] = popcount(range_or(b_in_lo[has_inner], b_in_hi[has_inner]))

    decided = lower >= capacity  # definite misses
    # The outer (superset) bound is only consulted where the inner bound
    # was inconclusive — usually a tiny residue of the candidates.
    und = np.flatnonzero(~decided)
    if len(und) == 0:
        return decided
    upper = popcount(range_or(b_out_lo[und], b_out_hi[und]))
    amb = und[upper >= capacity]
    if len(amb) == 0:
        return decided

    # Exact resolution: inner mask OR edge positions, slot by slot.
    pa, ta = p[amb], t[amb]
    ia = has_inner[amb]
    acc = np.zeros((len(amb), words), dtype=np.uint64)
    if ia.any():
        acc[ia] = range_or(b_in_lo[amb][ia], b_in_hi[amb][ia])
    inner_start = np.where(ia, b_in_lo[amb] * B, ta)
    inner_end = np.where(ia, b_in_hi[amb] * B, ta)
    rows = np.arange(len(amb))
    left_stop = np.minimum(inner_start, ta)
    right_stop = np.maximum(inner_end, pa + 1)
    for kslot in range(2 * B - 2):
        pos_l = pa + 1 + kslot
        pos_r = ta - 1 - kslot
        valid_l = pos_l < left_stop
        valid_r = pos_r >= right_stop
        if not (valid_l.any() or valid_r.any()):
            break
        for pos, valid in ((pos_l, valid_l), (pos_r, valid_r)):
            if not valid.any():
                continue
            safe = np.where(valid, pos, 0)
            acc[rows, widx[safe]] |= np.where(valid, bit[safe], np.uint64(0))
    decided[amb] = popcount(acc) >= capacity
    return decided


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
