"""Property-based oracle suite for the fast simulation engine.

Two families of invariants lock the vectorized paths in
``repro.memsim.fastsim`` to ground truth:

* every fast set-associative path (direct-mapped, 2-way, and the
  near/far stack-distance path, per set for 3+ ways and over the whole
  cache when fully associative) must agree with the scalar ``_n_way`` /
  ``_fully_associative`` reference — miss masks *and* write-back
  counts — on arbitrary address/write streams — at set counts and line
  sizes that are not powers of two, negative addresses and line ids on
  both sides of 2**31 included — and on TLB-shaped ones, where a working
  set just under, at or over the capacity cycles through a few pages;
* the fully-associative cache must agree with the stack-distance oracle
  ``miss_count(reuse_distances(lines), capacity)``, the LRU/stack
  equivalence (paper §2.1) the fast path is built on.

A third pins streaming: every kernel, on both engines, gives the same
result when the stream arrives in chunks, each replaying the state the
previous one ended in (:class:`~repro.memsim.cache.LRUState`).  A run
of identical time steps through the stepped chain, which simulates step
2 only until the hierarchy is back in a state step 1 was in and counts
the rest, gives every count the whole repeated stream gives.
"""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import stream as stream_module
from repro.harness import TimeSteps, simulate_steps
from repro.locality import reuse_distances
from repro.locality.reuse_distance import miss_count
from repro.memsim import DRAMConfig, MemoryHierarchy, octane, scaled_machine
from repro.obs import SpanCollector, metrics
from repro.stream import AddressStream
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
    CacheConfig("4w", 16 * 8, 8, 4),  # near/far path per set
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
#: the scaled L2), lines that are not, and a 3-way near/far path
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
    "3-way": [(4, 3, 8), (1, 3, 8)],
    "4-way": [(4, 4, 8), (6, 3, 12)],
    "8-way": [(2, 8, 8), (1, 8, 8)],
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


def _case(pages, capacity):
    """An explicit :func:`tlb_streams` case: loads of ``pages``."""
    lines = np.asarray(pages, dtype=np.int64)
    return lines, np.zeros(len(lines), dtype=bool), capacity


@given(tlb_streams(), st.lists(st.integers(0, 400), max_size=4))
# the cut lies past the stream's C-th miss (offset 3)
@example(_case([0, 1, 2, 3, 0, 4, 1], 4), [2])
@example(_case([0, 0, 0, 1, 2, 3, 0, 4], 4), [4])
@example(_case([0, 1, 1, 0, 2], 1), [3, 5, 11])
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


#: the stepped chain's machine: 4 L1 lines of 32 bytes, 8 L2 lines of
#: 128, pages of 64 bytes and DRAM rows of 512 on two banks, so every
#: level evicts within a few hundred accesses
STEP_PAGE = 64


def _step_machine(tlb_entries: int):
    machine = scaled_machine(octane(), 4 * 32, 8 * 128, tlb_entries, STEP_PAGE)
    return replace(machine, dram=DRAMConfig(channels=1, banks=2, row_bytes=512))


@st.composite
def stepped_runs(draw):
    """(addresses, writes, TLB entries) of one time step: free accesses
    over a few kilobytes, or a :func:`tlb_streams` case, pages of
    ``STEP_PAGE`` bytes."""
    if draw(st.booleans()):
        pages, writes, capacity = draw(tlb_streams())
        return pages * STEP_PAGE, writes, capacity
    lines, writes = draw(access_streams())
    spread = draw(st.sampled_from([8, 32, 96]))
    return lines * spread, writes, draw(st.integers(1, 4))


def _step(lines, writes, entries, spread=STEP_PAGE):
    """An explicit :func:`stepped_runs` case: ``lines`` ``spread`` bytes
    apart, ``writes`` as 0/1."""
    return (np.asarray(lines, dtype=np.int64) * spread,
            np.asarray(writes, dtype=bool), entries)


def _stepped(step, cuts, steps, chunk, engine):
    """``steps`` repeats of ``step``, its segments cut at ``cuts``,
    through the stepped chain with ``CHUNK_ACCESSES`` at ``chunk``: the
    result, how step 2 ended (``"matched"`` in the probe, ``"fallback"``
    then a match, ``"full"``: every access simulated) and the L1's
    ``counted=``."""
    addresses, writes, entries = step
    whole = AddressStream(addresses, writes)
    bounds = [0, *sorted({c for c in cuts if 0 < c < len(whole)}), len(whole)]
    segments = [whole.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    before = metrics.snapshot()["counters"]
    with patch.object(stream_module, "CHUNK_ACCESSES", chunk), SpanCollector() as spans:
        got = simulate_steps(
            _step_machine(entries), TimeSteps(lambda: segments, steps), engine
        )
    after = metrics.snapshot()["counters"]
    moved = {k for k in ("steps.probe.matched", "steps.fallback")
             if after.get(k, 0) != before.get(k, 0)}
    (l1,) = [e for e in spans.events if e.name == "l1"]
    counted = l1.attrs["counted"]
    path = ("matched" if "steps.probe.matched" in moved
            else "fallback" if counted else "full")
    return got, path, counted


def _assert_same_result(got, want):
    for name in ("accesses", "l1_misses", "l2_misses", "l2_writebacks", "tlb_misses"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("fills", "row_hits", "row_misses", "writebacks", "banks_touched",
                 "energy_nj"):
        assert getattr(got.dram, name) == getattr(want.dram, name), name
    assert np.array_equal(got.dram.per_bank_bytes, want.dram.per_bank_bytes)
    assert np.array_equal(got.dram.open_rows, want.dram.open_rows)


@given(
    stepped_runs(),
    st.lists(st.integers(0, 300), max_size=6),
    st.integers(1, 4),
    st.integers(16, 160),
    st.none(),
)
# step 2 matches inside the kept prefix; with the residue taken from the
# probe's end state instead of step 1's, the write-backs come out wrong
@example(_step([11, 22, 10, 1, 11, 12, 26, 30, 11, 9, 9, 24, 1, 24, 10, 3, 16, 24],
               [0] * 16 + [1, 0], 3, 96), [7, 12], 2, 16, "matched")
# no match in the probe, one after it; with the dirty bits left out of the
# compared state, an earlier false match
@example(_step([4, 17, 20, 2, 8, 1, 11, 2, 13, 17, 8, 2, 13, 21, 22,
                8, 17, 20, 22, 19, 3, 21, 10, 9, 13, 3, 5, 7, 3, 4],
               [0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0,
                1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1], 4, 96),
          [5], 3, 22, "fallback")
# no match at all: every access simulated
@example(_step([9, 18, 3, 11, 3, 8, 0, 0, 8, 24, 3, 17, 23, 10, 22, 9, 14],
               [0] * 17, 4, 32), [1, 2, 5], 2, 16, "full")
# a step shorter than a chunk, replayed, its chunks straddling steps
@example(_step([23, 5, 13, 19, 23, 8, 3, 4], [1] + [0] * 7, 2, 32), [], 3, 65, "full")
# one step
@example(_step([9, 18, 3, 11, 3, 8, 0, 0, 8, 24, 3, 17, 23, 10, 22, 9, 14],
               [0] * 17, 4, 32), [1, 2, 5], 1, 16, "full")
# short TLB-shaped steps, where only the TLB stops early: its C-th miss
# (offset 3) past the step's first segment ...
@example(_step([0, 1, 2, 3, 0, 4, 1], [0] * 7, 4), [2], 2, 8, "full")
# ... in the segment step 1 ends in, with step 2's warm-up
@example(_step([0, 0, 0, 1, 2, 3, 0, 4], [0] * 8, 4), [4], 3, 8, "full")
# a step touches fewer than C pages: every later step hits
@example(_step([0, 1, 0, 1, 2], [0] * 5, 4), [3], 3, 8, "full")
@example(_step([0, 1, 1, 0, 2], [0] * 5, 1), [3], 4, 8, "full")
@settings(max_examples=150, deadline=None)
def test_stepped_chain_equals_the_repeated_stream(step, cuts, steps, chunk, path):
    """``steps`` identical time steps through the stepped chain
    (:func:`~repro.harness.simulate_steps`): the caches snapshotted
    during step 1, step 2 probed from step 1's kept first chunk, what
    repeats step 1 counted — every field equals the whole repeated
    stream's simulated access by access (dirty write-backs, row hits,
    bytes per bank, open rows and energy included), on both engines.
    ``path`` pins how an example's step 2 ends."""
    addresses, writes, entries = step
    run = np.tile(addresses, steps), np.tile(writes, steps)
    for engine in ENGINES:
        got, took, counted = _stepped(step, cuts, steps, chunk, engine)
        with patch.object(stream_module, "CHUNK_ACCESSES", chunk):
            want = MemoryHierarchy(_step_machine(entries)).simulate(*run, engine)
        _assert_same_result(got, want)
        assert path is None or took == path, (engine, took)
        # counted accesses are those of a match only
        assert (counted > 0) == (took != "full")


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
