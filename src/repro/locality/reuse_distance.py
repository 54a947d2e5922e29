"""Exact reuse-distance computation (paper §2.1).

The *reuse distance* of an access is the number of distinct data items
touched since the previous access to the same item; on a fully-associative
LRU cache of capacity C the access hits iff its distance is < C.

``reuse_distances`` computes it without a per-access loop.  With ``p[t]``
the previous access to the key of access ``t`` (a *link* ``(p, t)``), the
window ``(p, t)`` holds ``w = t - p - 1`` accesses.  Links are split by
that window, and each side is counted the way that is cheap for it:

* **Near links** (``w < _NEAR``) count what repeats inside the window:
  an access ``s`` in it repeats a key already counted exactly when its
  own previous access lies inside the window too, so ::

      d[t] = w - #{s in (p, t) : p[s] > p}

  — at most ``_NEAR - 1`` gathers of the ``p`` column.  Sorted
  longest-window-first, step ``k`` reads only the prefix of links whose
  window reaches ``p + k``.
* **Far links** count what is *absent* from the window
  (``far_distances``): of the keys first touched before ``t``, one is
  ``t``'s own, some were touched for the last time before ``p``
  (*retired*), and every other one either shows up inside the window or
  skips it, its own link ``(p', t')`` enclosing ``(p, t)``.  A link that
  encloses a far link has a longer window, so it is far too, and ::

      d[t] = first-touched-before(t) - 1 - retired-by(p)
             - #{far links (p', t') : p' < p and t' > t}

  The first two terms are binary searches in the time-ordered first and
  last accesses of each key; the third is a per-element inversion count
  (``prior_greater``) of the far links' ``p`` column, run on the far
  links only.

Both counts are identities, not estimates, so every distance is exact;
the split only decides which identity is evaluated.  The fully-associative
simulator (``memsim.fastsim``) asks ``far_distances`` the same question,
with its capacity in place of ``_NEAR``.

* **The p column** comes from one sort of the composites
  ``((key - min) << bits) | position``: they are unique, so an unstable
  sort groups equal keys with their positions ascending, and a counting
  sort by position puts each link at its ``t``.  When key span plus
  position bits exceed 62 (sparse or huge keys) a stable ``argsort`` of
  the keys gives the same grouping.
* **Inversions.**  Previous positions are distinct, so ranking them turns
  ``p`` (over the ``m`` far links) into a permutation of ``0..m-1``.  A
  stable MSB→LSB bit partition then sorts it: at bit ``k`` the elements
  sharing all higher bits form one group, still in time order, and every
  zero-bit element collects the one-bit elements before it in its group
  — each inverted pair is met once, at its highest differing bit.
  Because the values are a permutation, group ``g`` at bit ``k`` *is* the
  aligned slot range ``[g << (k+1), (g+1) << (k+1))`` and every group
  before the last holds exactly ``1 << k`` ones, so group starts and
  sizes are arithmetic: a level is one ``cumsum``, a dozen elementwise
  ``int32`` operations and two scatters.  The lowest five bits are
  settled at once by a 32×32 pairwise compare inside each aligned block,
  done in slabs.

O(n log n) time in ⌈log₂ m⌉ − 5 array passes over the far links; O(n)
working memory in ``int32`` words (positions must therefore fit
``int32``).  ``reuse_distances_naive`` is the quadratic oracle the
property-based tests compare against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import metrics, span

#: Distance assigned to first-ever (cold) accesses.
COLD = -1

#: Links whose window holds fewer accesses are counted inside it.
_NEAR = 16
#: log2 of the block width below which inversions are counted pairwise.
_BLOCK_BITS = 5
#: Blocks per pairwise-compare slab (a 512 KB boolean scratch buffer).
_SLAB_BLOCKS = 512
#: Widest composite sort key (key span bits + position bits).
_COMPOSITE_BITS = 62


def reuse_distances(keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in ``keys``.

    Parameters
    ----------
    keys:
        One integer per access identifying the datum — a 1-D integer or
        bool sequence (e.g. :meth:`AccessTrace.global_keys`) or an
        :class:`~repro.stream.AddressStream`, whose address column is
        used via the array protocol.  Anything else — a non-integer
        dtype, another rank, ``uint64`` keys beyond ``int64`` — raises
        :class:`ValueError` instead of being truncated onto wrong keys.

    Returns
    -------
    ``int64`` array of the same length; ``COLD`` (−1) marks cold accesses.

    The ``locality.reuse_distances`` span carries ``accesses``,
    ``distinct`` (cold accesses), ``far`` (reuses through the inversion
    count) and ``levels`` (its partition levels over them).
    """
    arr = _integer_keys(keys)
    n = int(arr.size)
    metrics.inc("locality.reuse.accesses", n)
    with span("locality.reuse_distances", accesses=n) as sp:
        out = np.full(n, COLD, dtype=np.int64)
        prev = _previous_access(arr)
        t = np.flatnonzero(prev >= 0).astype(np.int32)
        p = prev[t]
        # an access that is nobody's previous one is its key's last
        last = np.ones(n, dtype=bool)
        last[p] = False
        window = t - p
        window -= 1
        near = window < _NEAR
        out[t[near]] = _near_distances(prev, p[near], window[near])
        far = ~near
        del window, near  # the far phase's peak comes after the near one's
        t, p = t[far], p[far]
        first = np.flatnonzero(prev < 0)
        del prev, far
        sp.attrs.update(
            distinct=first.size, far=t.size, levels=_partition_levels(t.size)
        )
        out[t] = far_distances(p, t, first, np.flatnonzero(last))
    return out


def _integer_keys(keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """``keys`` as a 1-D ``int64`` array, or ``ValueError`` naming why not."""
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ValueError(
            f"reuse_distances needs a 1-D key sequence, got shape {arr.shape}"
        )
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.dtype.kind not in "iub":
        raise ValueError(
            f"reuse_distances needs integer keys, got dtype {arr.dtype}"
        )
    if arr.dtype == np.uint64 and int(arr.max()) > np.iinfo(np.int64).max:
        raise ValueError(
            f"reuse_distances keys must fit int64, got uint64 up to {int(arr.max())}"
        )
    if arr.size > np.iinfo(np.int32).max:
        raise ValueError(
            f"reuse_distances handles at most 2**31 - 1 accesses, got {arr.size}"
        )
    return arr.astype(np.int64, copy=False)


def _reuse_links(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(prev, cur)`` positions (``int32``) of every non-cold access
    ``cur`` and the previous access ``prev`` to the same key."""
    n = arr.size
    if n < 2:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    bits = (n - 1).bit_length()
    lo = int(arr.min())
    if (int(arr.max()) - lo).bit_length() + bits <= _COMPOSITE_BITS:
        comp = arr - lo
        comp <<= bits
        comp |= np.arange(n, dtype=np.int64)
        comp.sort()
        pos = (comp & ((1 << bits) - 1)).astype(np.int32)
        comp >>= bits
        same = comp[1:] == comp[:-1]
    else:
        order = np.argsort(arr, kind="stable")
        skeys = arr[order]
        same = skeys[1:] == skeys[:-1]
        pos = order.astype(np.int32)
    return pos[:-1][same], pos[1:][same]


def _previous_access(arr: np.ndarray) -> np.ndarray:
    """``prev[t]``, the previous access to the key of access ``t``, or
    −1 if there is none (``int32``): the links, counting-sorted by time."""
    prev = np.full(arr.size, -1, dtype=np.int32)
    p, t = _reuse_links(arr)
    prev[t] = p
    return prev


def _near_distances(prev: np.ndarray, p: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Distances of the links ``(p, p + window + 1)`` whose window is
    shorter than ``_NEAR``: the window minus the accesses in it whose own
    previous access is inside too."""
    order = np.argsort((_NEAR - 1 - window).astype(np.uint8), kind="stable")
    p, d = p[order], window[order]
    reach = np.bincount(window, minlength=_NEAR)[::-1].cumsum()[::-1]
    for k in range(1, _NEAR):
        j = int(reach[k])  # longest windows first: these hold access p + k
        if not j:
            break
        head = p[:j]
        d[:j] -= prev[head + k] > head
    out = np.empty_like(d)
    out[order] = d
    return out


def far_distances(
    p: np.ndarray, t: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Distinct keys inside the window ``(p[i], t[i])`` of every link,
    counted by what is absent from it (module docstring).

    ``t`` ascends; the links must include every link that encloses one of
    them (all links whose window reaches some threshold qualify).
    ``first`` and ``last`` are the sorted positions of each key's first
    and last access in the stream the links come from.  Returns ``int32``.
    """
    if not t.size:
        return np.empty(0, dtype=np.int32)
    d = np.searchsorted(first, t).astype(np.int32)
    d -= np.searchsorted(last, p).astype(np.int32)
    d -= 1
    # #{later links with an earlier start} = #{earlier, greater} on the
    # reversed, negated column
    top = int(t[-1])
    d -= prior_greater((top - p)[::-1], top + 1)[::-1]
    return d


def prior_greater(values: np.ndarray, bound: int) -> np.ndarray:
    """``c[j] = #{i < j : values[i] > values[j]}`` (``int32``) for distinct
    integers in ``[0, bound)`` — the per-element inversion count under
    ``far_distances``."""
    q = _rank(values, bound)
    cur, acc = _partition(q, _partition_levels(q.size))
    acc += _block_inversions(cur)
    by_value = np.empty_like(acc)
    by_value[cur] = acc
    return by_value[q]


def _rank(values: np.ndarray, bound: int) -> np.ndarray:
    """Distinct ``values`` from ``[0, bound)`` as a permutation of
    ``0..m-1`` in the same relative order (a counting sort)."""
    rank = np.zeros(bound, dtype=np.int32)
    rank[values] = 1
    np.cumsum(rank, out=rank)
    q = rank[values]
    q -= 1
    return q


def _partition_levels(m: int) -> int:
    """Bits a permutation of ``0..m-1`` needs above the pairwise block."""
    return max(0, (m - 1).bit_length() - _BLOCK_BITS)


def _partition(q: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable bit partition of ``q`` from its top bit down to
    ``_BLOCK_BITS``: the reordered values and, beside each, the number of
    prior greater elements met so far (those differing above the block)."""
    m = q.size
    cur = q.copy()
    acc = np.zeros(m, dtype=np.int32)
    if not levels:
        return cur, acc
    slot = np.arange(m, dtype=np.int32)
    cur2 = np.empty_like(cur)
    acc2 = np.empty_like(acc)
    bit = np.empty_like(cur)
    ones = np.empty_like(cur)
    tmp = np.empty_like(cur)
    dst = np.empty(m, dtype=np.intp)
    for k in range(_BLOCK_BITS + levels - 1, _BLOCK_BITS - 1, -1):
        np.right_shift(cur, k, out=bit)
        bit &= 1
        # ones before each slot inside its group: the global count minus
        # the (1 << k) ones of every full group before it
        np.cumsum(bit, out=ones)
        ones -= bit
        np.right_shift(slot, k + 1, out=tmp)
        tmp <<= k
        ones -= tmp
        # stable partition of each group: a zero moves to slot - ones, a
        # one to group start + (1 << k) + ones, which is further by
        # 2 * tmp + (1 << k) + 2 * ones - slot
        tmp <<= 1
        tmp += 1 << k
        tmp += ones
        tmp += ones
        tmp -= slot
        tmp *= bit
        tmp += slot
        tmp -= ones
        dst[:] = tmp
        # a zero is inverted with every one before it in its group
        bit -= 1
        ones &= bit
        acc += ones
        cur2[dst] = cur
        acc2[dst] = acc
        cur, cur2 = cur2, cur
        acc, acc2 = acc2, acc
    return cur, acc


def _block_inversions(cur: np.ndarray) -> np.ndarray:
    """Inversions inside each aligned block of ``1 << _BLOCK_BITS`` slots,
    by pairwise compare of the low bits (the high bits agree)."""
    m = cur.size
    width = 1 << _BLOCK_BITS
    nblocks = -(-m // width)
    # padding sits after every real slot, so it is never a prior element
    low = np.zeros(nblocks * width, dtype=np.uint8)
    low[:m] = cur & (width - 1)
    low = low.reshape(nblocks, width)
    earlier = np.triu(np.ones((width, width), dtype=bool), 1)  # [i, j]: i < j
    counts = np.empty((nblocks, width), dtype=np.uint8)
    greater = np.empty((min(nblocks, _SLAB_BLOCKS), width, width), dtype=bool)
    for start in range(0, nblocks, _SLAB_BLOCKS):
        blk = low[start : start + _SLAB_BLOCKS]
        gt = greater[: len(blk)]
        np.greater(blk[:, :, None], blk[:, None, :], out=gt)
        gt &= earlier
        np.sum(gt, axis=1, dtype=np.uint8, out=counts[start : start + _SLAB_BLOCKS])
    return counts.reshape(-1)[:m]


def reuse_distances_naive(keys: Sequence[int]) -> list[int]:
    """Quadratic reference implementation (test oracle)."""
    out: list[int] = []
    seen: list[int] = []  # LRU stack, most recent first
    for key in keys:
        if key in seen:
            depth = seen.index(key)
            out.append(depth)
            seen.pop(depth)
        else:
            out.append(COLD)
        seen.insert(0, key)
    return out


def miss_count(distances: np.ndarray, capacity: int) -> int:
    """Misses of a fully-associative LRU cache of ``capacity`` *items*,
    cold misses included."""
    cold = int(np.count_nonzero(distances == COLD))
    return int(np.count_nonzero(distances >= capacity)) + cold


def miss_ratio_curve(
    distances: np.ndarray, capacities: Sequence[int]
) -> dict[int, float]:
    """Miss ratio of a fully-associative LRU cache at each capacity.

    The classic use of reuse-distance analysis (and the reason the paper
    measures distances rather than misses): one distance profile predicts
    the whole cache-size spectrum.  Computed in one pass from the
    cumulative distance histogram.
    """
    n = len(distances)
    if n == 0:
        return {int(c): 0.0 for c in capacities}
    d = np.asarray(distances)
    cold = int(np.count_nonzero(d == COLD))
    reuse = np.sort(d[d != COLD])
    out: dict[int, float] = {}
    for c in capacities:
        # misses: cold + reuses with distance >= capacity
        hits_below = int(np.searchsorted(reuse, c, side="left"))
        out[int(c)] = (cold + (len(reuse) - hits_below)) / n
    return out
