"""Vectorized cache-simulation engine (the ``fast`` engine).

The scalar loops in :mod:`repro.memsim.cache` are exact but spend
hundreds of nanoseconds per access in the interpreter.  This module
re-derives the same per-access miss masks and write-back counts with
numpy primitives, exploiting six structural facts about LRU caches.
Line ids arrive narrowed once per level (``cache._unit_ids``: a shift for
power-of-two lines, ``int32`` whenever they fit), every sort key is cast
to the narrowest dtype, and each kernel gathers and compares one column:

1. **Run heads, compressed once per level.**  Consecutive accesses to
   the same line are guaranteed hits that leave the LRU state unchanged
   apart from OR-ing the dirty bit, so only the head of a run can miss.
   The fully-associative path compresses the whole stream to its heads
   first, because facts 4-5 are stated on head positions (and the page
   stream is where it pays).  A set-associative level does not: the runs
   of its set-sorted stream (fact 2) contain the global ones, and
   write-backs (fact 3) hold at any granularity the miss mask is exact
   at, so they read the raw columns.

2. **Set-partitioned shift comparison on one column.**  Restricted to
   one set, an A-way LRU cache holds exactly the A most recently used
   distinct lines.  A stable sort by set index (a radix sort: the key is
   cast to 8 or 16 bits) makes each set's subsequence contiguous, and
   because equal lines share a set, a set boundary is a line boundary:
   the set column is never gathered or compared again.  A direct-mapped
   miss is ``line[i] != line[i-1]`` in that order, i.e. an in-set run
   head, and among those heads a 2-way miss is ``head[i] != head[i-2]``.
   (The shift trick stops at 2 ways: the third most recent *distinct*
   line can sit arbitrarily far back.  From 3 ways on, the heads go
   through the reuse-distance kernel: lines never cross sets, so the
   stack distance within the set is the distance in the sorted stream,
   and a head misses iff it is cold or its distance reaches the
   associativity.)

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

6. **The end state is on the same columns.**  What the cache holds when
   the stream ends — each set's last ``A`` distinct lines, LRU → MRU —
   is the ``A`` latest of the per-line last heads the fully-associative
   kernel already sorted, or, set-associative, each set's last ``A``
   distinct in-set run heads (a window of the last ``A`` heads per set,
   widened only while repeats hide a way).  A resident line is in its
   last residency segment (fact 3), whose dirty bit is its own.  That
   state, replayed as a prefix of the next chunk, carries one stream
   across chunks (:class:`~repro.memsim.cache.LRUState`).

The misses of *every* fully-associative capacity at once are
``locality.miss_count`` over one full distance profile (the
reuse-distance methodology of Fig. 3); a level needs one capacity.

Every path is bit-identical to the reference engine; the property tests
in ``tests/properties/test_engine_props.py`` pin that equivalence on
random streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..lang import SimulationError
from ..locality.reuse_distance import COLD, prior_greater, reuse_distances
from ..obs import metrics
from .cache import CacheConfig, CacheResult, LRUState


def simulate_fast(
    config: CacheConfig, lines: np.ndarray, writes: Optional[np.ndarray] = None
) -> CacheResult:
    """Vectorized equivalent of the scalar dispatch in ``cache.py``."""
    metrics.inc("engine.fast.calls")
    n = len(lines)
    if n > np.iinfo(np.int32).max:  # positions are int32 below
        raise SimulationError(
            f"the fast engine handles at most 2**31 - 1 accesses, got {n}"
        )
    if n == 0:
        return CacheResult(
            np.zeros(0, dtype=bool), 0, state=LRUState(lines, np.zeros(0, dtype=bool))
        )
    if config.assoc == 0 or config.num_sets == 1:
        # the near/far kernel is stated on global run heads (fact 1); a
        # head that hits is cleared in place, leaving the miss mask
        miss = _run_heads(lines)
        hpos = np.flatnonzero(miss)
        hl = lines[hpos]
        cmiss, far, recent = _fa_miss_mask(hl, config.ways)
        miss[hpos] = cmiss
        resident = hl[recent]
        work = {"heads": len(hpos), "far": far}
    else:
        miss, heads, resident = _set_assoc_miss_mask(
            lines, config.num_sets, config.assoc
        )
        work = {"heads": heads}
    if writes is None:
        writebacks, dirty = 0, np.zeros(len(resident), dtype=bool)
    else:
        writebacks, dirty = residency_writebacks(lines, miss, writes, resident)
    return CacheResult(miss, writebacks, work, LRUState(resident, dirty))


def _run_heads(lines: np.ndarray) -> np.ndarray:
    """Mask of the accesses that differ from their predecessor."""
    head = np.empty(len(lines), dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    return head


def _sort_key(values: np.ndarray, max_value: int) -> np.ndarray:
    """Cast values in ``[0, max_value]`` to the narrowest dtype: numpy's
    stable sort is a radix sort up to 16 bits, a merge sort beyond."""
    for dtype in (np.uint8, np.uint16, np.int32):
        if max_value <= np.iinfo(dtype).max:
            return values.astype(dtype, copy=False)
    return values


def _dense_key(lines: np.ndarray) -> tuple[np.ndarray, int]:
    """Line ids rebased to start at 0, as a sort key that groups them,
    and the base."""
    lo = int(lines.min())
    return _sort_key(lines - lo, int(lines.max()) - lo), lo


def residency_writebacks(
    lines: np.ndarray, miss: np.ndarray, writes: np.ndarray, resident: np.ndarray
) -> tuple[int, np.ndarray]:
    """Write-backs from a miss mask via dirty-residency counting, and
    the dirty bit of every ``resident`` line.

    Valid for every LRU geometry and at any granularity the mask is
    exact at (see module docstring, fact 3): group accesses by line,
    split each line's sequence at its misses, and count the segments
    containing at least one write.  A line still resident at the end is
    in its last segment, so that segment is its dirty bit (fact 6).
    """
    dirty_resident = np.zeros(len(resident), dtype=bool)
    if not writes.any():
        return 0, dirty_resident
    key, lo = _dense_key(lines)
    order = np.argsort(key, kind="stable")
    # A line's first access is always a miss, so cumsum(miss) segments
    # never straddle two lines.
    seg = np.cumsum(miss.take(order))
    dirty = np.zeros(int(seg[-1]) + 1, dtype=bool)
    dirty[seg[writes.take(order)]] = True
    if len(resident):
        last = np.searchsorted(key.take(order), resident - lo, side="right") - 1
        dirty_resident = dirty[seg[last]]
    return int(dirty.sum()), dirty_resident


def _set_assoc_miss_mask(
    lines: np.ndarray, num_sets: int, assoc: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Set-associative LRU miss mask for any associativity (fact 2), the
    number of in-set run heads it was decided on, and the resident lines
    at the end (fact 6)."""
    pow2 = num_sets & (num_sets - 1) == 0

    def set_of(ids: np.ndarray) -> np.ndarray:
        return _sort_key(ids & (num_sets - 1) if pow2 else ids % num_sets, num_sets - 1)

    order = np.argsort(set_of(lines), kind="stable")
    # Equal lines share a set, so in set order "same line as the access
    # before" needs no look at the set column: a set boundary is a line
    # boundary.  In-set run heads are the only candidates to miss.
    ls = lines.take(order)
    head = _run_heads(ls)
    hpos = np.flatnonzero(head)
    heads = len(hpos)
    hl = ls[hpos]
    if assoc == 2:
        # the set holds the two previous heads; the one just before
        # differs by construction, so a hit is the head two back
        miss_h = np.ones(heads, dtype=bool)
        np.not_equal(hl[2:], hl[:-2], out=miss_h[2:])
        head[hpos] = miss_h
    elif assoc > 2:
        metrics.inc("engine.fast.n_way_distance")
        distances = reuse_distances(hl)
        head[hpos] = (distances == COLD) | (distances >= assoc)
    # the heads of set s are hl[ends[s - 1]:ends[s]]
    hsets = set_of(hl)
    ends = np.searchsorted(hsets, np.arange(num_sets, dtype=hsets.dtype), side="right")
    resident = _last_distinct(hl, ends, assoc)
    miss = np.empty(len(lines), dtype=bool)
    miss[order] = head
    return miss, heads, resident


def _last_distinct(values: np.ndarray, ends: np.ndarray, ways: int) -> np.ndarray:
    """The last ``ways`` distinct values of every group, in order of last
    occurrence: group ``g`` is ``values[ends[g - 1]:ends[g]]``, no value
    occurs in two groups and neighbours within a group differ (they are
    run heads).  Groups are looked at through a window of their last
    ``ways`` values — up to two ways that is the answer — doubled while
    a group shows fewer distinct values than it may hold and has more to
    show."""
    starts = np.concatenate(([0], ends[:-1]))
    width = ways
    while True:
        lo = np.maximum(starts, ends - width)
        counts = ends - lo
        idx = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        if ways <= 2:
            # the callers' groups are run heads: neighbours differ
            return values.take(idx)
        # each distinct value at its last position; positions sort group-major
        _, back = np.unique(values.take(idx)[::-1], return_index=True)
        last = np.sort(idx[len(idx) - 1 - back])
        group = np.searchsorted(ends, last, side="right")
        distinct = np.bincount(group, minlength=len(ends))
        if np.all((distinct >= ways) | (lo == starts)):
            break
        width *= 2
    from_end = np.cumsum(distinct)[group] - np.arange(len(last))
    return values.take(last[from_end <= ways])


def _fa_miss_mask(
    lines: np.ndarray, capacity: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Fully-associative LRU miss mask of an RLE-compressed stream, how
    many *far* heads the gap filter left open (module docstring), and the
    positions of the resident lines' last heads, LRU → MRU (fact 6)."""
    m = len(lines)
    key, _ = _dense_key(lines)
    # Grouped by line with positions ascending: neighbours inside a group
    # are the links (previous head of the line, head).
    order = np.argsort(key, kind="stable")
    opens = _run_heads(key.take(order))  # first head of its line: cold
    starts = np.flatnonzero(opens)
    first = order[starts]
    last = np.sort(order[np.append(starts[1:], m) - 1])
    miss = np.zeros(m, dtype=bool)
    miss[first] = True
    recent = last[-capacity:]  # the lines touched last are the ones held

    pos = order.astype(np.int32)  # simulate_fast bounds the stream
    far = np.flatnonzero((pos[1:] - pos[:-1] > capacity) & ~opens[1:])
    if len(far) == 0:
        return miss, 0, recent
    p, t = pos[far], pos[far + 1]
    by_time = np.argsort(t)
    p, t = p[by_time], t[by_time]
    seen = np.searchsorted(np.sort(first), t)
    retired = np.searchsorted(last, p)
    # #{later far links with an earlier start} = #{earlier, greater} on
    # the reversed, negated column
    enclosing = prior_greater((m - 1 - p)[::-1], m)[::-1]
    miss[t[seen - 1 - retired - enclosing >= capacity]] = True
    return miss, len(far), recent
