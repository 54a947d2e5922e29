"""Property-based oracle suite for the fast simulation engine.

Two families of invariants lock the vectorized paths in
``repro.memsim.fastsim`` to ground truth:

* every fast set-associative path (direct-mapped, 2-way, the
  stack-distance path for 3+ ways, and the fully-associative near/far
  path) must agree with the scalar ``_n_way`` / ``_fully_associative``
  reference — miss masks *and* write-back counts — on arbitrary
  address/write streams — at set counts and line sizes that are not
  powers of two, negative addresses and line ids on both sides of 2**31
  included — and on TLB-shaped ones, where a working set just under, at
  or over the capacity cycles through a few pages;
* the fully-associative cache must agree with the stack-distance oracle
  ``miss_count(reuse_distances(lines), capacity)``, the LRU/stack
  equivalence (paper §2.1) the fast path is built on.

A third pins streaming: every kernel, on both engines, gives the same
result when the stream arrives in chunks, each replaying the state the
previous one ended in (:class:`~repro.memsim.cache.LRUState`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality import reuse_distances
from repro.locality.reuse_distance import miss_count
from repro.memsim.cache import (
    ENGINES,
    CacheConfig,
    _fully_associative,
    _n_way,
    simulate_cache,
    simulate_cache_writeback,
)


@st.composite
def access_streams(draw):
    """A (lines, writes) pair with clustered line numbers and runs."""
    n = draw(st.integers(1, 120))
    span = draw(st.integers(1, 60))
    lines = draw(
        st.lists(st.integers(0, span), min_size=n, max_size=n)
    )
    # splice in runs of repeats so the RLE front-end is exercised
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=8))
    for pos in repeats:
        run = draw(st.integers(1, 4))
        lines[pos : pos + run] = [lines[pos]] * len(lines[pos : pos + run])
    writes = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    return np.asarray(lines, dtype=np.int64), np.asarray(writes, dtype=bool)


CONFIGS = [
    CacheConfig("dm", 8 * 8, 8, 1),  # direct-mapped, 8 sets
    CacheConfig("2w", 16 * 8, 8, 2),  # 2-way, 8 sets
    CacheConfig("2w1", 2 * 8, 8, 2),  # 2-way, single set
    CacheConfig("fa", 4 * 8, 8, 0),  # fully associative, 4 lines
    CacheConfig("fa1", 1 * 8, 8, 0),  # fully associative, 1 line
    CacheConfig("4w", 16 * 8, 8, 4),  # stack-distance path
]


@given(access_streams())
@settings(max_examples=150, deadline=None)
def test_fast_engine_matches_reference(stream):
    lines, writes = stream
    addresses = lines * 8
    for config in CONFIGS:
        ref = simulate_cache_writeback(config, addresses, writes, engine="reference")
        fast = simulate_cache_writeback(config, addresses, writes, engine="fast")
        assert np.array_equal(ref.miss, fast.miss), config.name
        assert ref.writebacks == fast.writebacks, config.name


@given(access_streams())
@settings(max_examples=150, deadline=None)
def test_set_assoc_paths_match_n_way(stream):
    """_set_assoc_miss_mask at 1, 2 and 3+ ways (via dispatch) agrees with
    scalar _n_way."""
    lines, writes = stream
    for assoc, num_sets in ((1, 8), (2, 8), (2, 4), (3, 4), (4, 4), (8, 2)):
        config = CacheConfig("c", num_sets * assoc * 8, 8, assoc)
        oracle = _n_way(lines, writes, num_sets, assoc)
        for engine in ("fast", "reference"):
            got = simulate_cache_writeback(config, lines * 8, writes, engine=engine)
            assert np.array_equal(oracle.miss, got.miss), (assoc, engine)
            assert oracle.writebacks == got.writebacks, (assoc, engine)


#: (sets, ways, line bytes): set counts that are not powers of two (96 is
#: the scaled L2), lines that are not, and a 3-way stack-distance path
ODD_GEOMETRIES = [(3, 1, 8), (6, 2, 8), (96, 2, 128), (4, 2, 24), (6, 3, 12)]

#: first line id of the stream (line ids then span at most 60): negative
#: and straddling zero; wholly below 2**31, where ids are narrowed to
#: int32 up to the last value; across 2**31, where they must stay int64
ORIGINS = [0, -1000, -30, 2**31 - 61, 2**31 - 30]


@given(access_streams(), st.sampled_from(ORIGINS), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_odd_geometries_and_id_widths_match_reference(stream, origin, seed):
    """Shift / floor-division ids, ``&`` / ``%`` set indices and the
    int32 / int64 id columns against the scalar engine's plain ``//``."""
    lines, writes = stream
    within = np.random.default_rng(seed).integers(0, 2**16, len(lines))
    for num_sets, assoc, line_bytes in ODD_GEOMETRIES:
        config = CacheConfig("c", num_sets * assoc * line_bytes, line_bytes, assoc)
        addresses = (origin + lines) * line_bytes + within % line_bytes
        ref = simulate_cache_writeback(config, addresses, writes, engine="reference")
        fast = simulate_cache_writeback(config, addresses, writes, engine="fast")
        assert np.array_equal(ref.miss, fast.miss), (config, origin)
        assert ref.writebacks == fast.writebacks, (config, origin)


@st.composite
def tlb_streams(draw):
    """(pages, writes, capacity): ``k`` slots visited round-robin with
    ``k`` around the capacity ``C``; now and then a slot's page is
    replaced by a fresh one (pages retire) or the walk steps back a slot
    (a window repeats pages, so a long gap can still be a hit) — reuses
    are near hits, far hits and far misses by a margin of a page or two.
    The stream ends on a far reuse of its first page, page numbers may
    be negative or spread over more than 2**31, and the capacity may
    exceed the number of distinct pages."""
    cap = draw(st.sampled_from([1, 2, 4, 16, 64]))
    k = max(1, draw(st.sampled_from([cap - 1, cap, cap + 1, 2 * cap])))
    rounds = draw(st.integers(1, 5))
    dice = draw(
        st.lists(st.integers(0, 7), min_size=k * rounds, max_size=k * rounds)
    )
    slots = list(range(k))
    fresh = k
    at = 0
    pages = []
    for die in dice:
        if die == 0:  # the occasional page advance
            slots[at % k] = fresh
            fresh += 1
        pages.append(slots[at % k])
        at += -1 if die == 1 else 1
    pages.append(pages[0])
    origin = draw(st.sampled_from([0, -3, -(2**40), 2**33]))
    stride = draw(st.sampled_from([1, 5, 2**32 + 1]))
    if draw(st.booleans()):
        cap = fresh + draw(st.integers(0, 2))  # everything fits
    writes = draw(st.lists(st.booleans(), min_size=len(pages), max_size=len(pages)))
    lines = origin + stride * np.asarray(pages, dtype=np.int64)
    return lines, np.asarray(writes, dtype=bool), cap


@given(tlb_streams())
@settings(max_examples=300, deadline=None)
def test_tlb_shaped_streams_match_scalar(case):
    """The near/far fully-associative kernel against the scalar LRU."""
    lines, writes, capacity = case
    oracle = _fully_associative(lines, writes, capacity)
    got = simulate_cache_writeback(
        CacheConfig("tlb", capacity * 8, 8, 0), lines * 8, writes, engine="fast"
    )
    assert np.array_equal(oracle.miss, got.miss)
    assert oracle.writebacks == got.writebacks


def _chunked(config, addresses, writes, engine, cuts):
    """The stream cut at ``cuts``, each piece continuing from the last
    one's end state: the joined miss mask, the write-backs (evictions of
    every piece plus the last residue) and the final state."""
    bounds = [0, *sorted(min(c, len(addresses)) for c in cuts), len(addresses)]
    state, masks, evicted = None, [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        part = None if writes is None else writes[lo:hi]
        res = simulate_cache_writeback(config, addresses[lo:hi], part, engine, state)
        masks.append(res.miss)
        evicted += res.writebacks - res.state.dirty_lines
        state = res.state
    return np.concatenate(masks), evicted + state.dirty_lines, state


#: (sets, ways, line bytes) per kernel of the fast engine, the odd
#: geometries of ``ODD_GEOMETRIES`` among them
KERNELS = {
    "direct-mapped": [(8, 1, 8), (3, 1, 8)],
    "2-way": [(8, 2, 8), (1, 2, 8), (6, 2, 8), (96, 2, 128), (4, 2, 24)],
    "4-way": [(4, 4, 8), (6, 3, 12)],
    "fully-associative": [(1, 4, 8), (1, 1, 8), (1, 5, 24)],
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@given(
    access_streams(),
    st.sampled_from(ORIGINS),
    st.lists(st.integers(0, 130), max_size=4),
    st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_chunk_boundaries_are_invisible(kernel, stream, origin, cuts, seed):
    """Cut anywhere — inside runs, between a line's misses, into empty
    pieces — with each piece starting from the state the last one left,
    both engines give the whole stream's misses and write-backs, and the
    same end state as each other."""
    lines, writes = stream
    within = np.random.default_rng(seed).integers(0, 2**16, len(lines))
    for num_sets, ways, line_bytes in KERNELS[kernel]:
        assoc = 0 if kernel == "fully-associative" else ways
        config = CacheConfig("c", num_sets * ways * line_bytes, line_bytes, assoc)
        addresses = (origin + lines) * line_bytes + within % line_bytes
        states = []
        for engine in ENGINES:
            whole = simulate_cache_writeback(config, addresses, writes, engine)
            miss, writebacks, state = _chunked(config, addresses, writes, engine, cuts)
            assert np.array_equal(miss, whole.miss), (config, engine)
            assert writebacks == whole.writebacks, (config, engine)
            # a level that tracks no writes (L1, TLB) carries clean lines
            loads, none, _ = _chunked(config, addresses, None, engine, cuts)
            assert np.array_equal(loads, whole.miss) and none == 0
            states.append(state)
        assert np.array_equal(states[0].lines, states[1].lines), config
        assert np.array_equal(states[0].dirty, states[1].dirty), config


@given(tlb_streams(), st.lists(st.integers(0, 400), max_size=4))
@settings(max_examples=150, deadline=None)
def test_tlb_shaped_chunks_are_invisible(case, cuts):
    """The near/far kernel cut mid-cycle, where a far reuse straddles the
    boundary and only the replayed prefix remembers the page."""
    lines, writes, capacity = case
    config = CacheConfig("tlb", capacity * 8, 8, 0)
    whole = simulate_cache_writeback(config, lines * 8, writes, "fast")
    miss, writebacks, _ = _chunked(config, lines * 8, writes, "fast", cuts)
    assert np.array_equal(miss, whole.miss)
    assert writebacks == whole.writebacks


@given(access_streams(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_fully_associative_matches_stack_distance(stream, capacity):
    """FA LRU miss count == stack-distance oracle, both engines."""
    lines, _ = stream
    config = CacheConfig("fa", capacity * 8, 8, 0)
    expected = miss_count(reuse_distances(lines), capacity)
    for engine in ("fast", "reference"):
        miss = simulate_cache(config, lines * 8, engine=engine)
        assert int(miss.sum()) == expected, engine
