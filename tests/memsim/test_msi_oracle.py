"""Unit tests for the MSI coherence oracle (repro.memsim.coherence).

Hand-checkable streams pin the owner-tracking automaton: cold vs
invalidation classification, write-invalidates-all, upgrades, the
element → line reduction its callers make, and its miss accounting.
:func:`scalar_msi` is the automaton access by access, the oracle the
array version is compared with on random streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memsim.coherence import simulate_msi
from repro.memsim.geometry import ELEM_BYTES, L1_LINE_BYTES


def scalar_msi(lines, writes, tids, threads):
    """The automaton one access at a time: per line the valid set ``V``
    and the ever set ``E`` as thread bitmasks.  Returns ``(lines, cold,
    invalidations, upgrades, invalidation mask)`` as lists."""
    valid: dict[int, int] = {}
    ever: dict[int, int] = {}
    cold = [0] * threads
    inval = [0] * threads
    upgrades = [0] * threads
    mask = [False] * len(lines)
    for i, (line, write, t) in enumerate(zip(lines, writes, tids)):
        bit = 1 << t
        v = valid.get(line, 0)
        if not v & bit:
            if ever.get(line, 0) & bit:
                inval[t] += 1
                mask[i] = True
            else:
                cold[t] += 1
        if write:
            if v & ~bit:
                upgrades[t] += 1
            valid[line] = bit
        else:
            valid[line] = v | bit
        ever[line] = ever.get(line, 0) | bit
    return len(ever), cold, inval, upgrades, mask


def msi(lines, writes, tids, threads):
    return simulate_msi(
        np.asarray(lines, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        np.asarray(tids, dtype=np.int64),
        threads,
    )


# -- the automaton -------------------------------------------------------------


def test_single_thread_never_invalidates():
    r = msi([0, 0, 1, 0, 1], [1, 0, 1, 0, 0], [0] * 5, 1)
    assert r.lines == 2
    assert r.cold.tolist() == [2]  # first touch of each line
    assert r.total_invalidations == 0
    assert r.total_upgrades == 0


def test_read_sharing_is_free():
    # both threads read the same line repeatedly: one cold each, no
    # invalidations (S state is shared freely)
    r = msi([7, 7, 7, 7], [0, 0, 0, 0], [0, 1, 0, 1], 2)
    assert r.cold.tolist() == [1, 1]
    assert r.total_invalidations == 0
    assert r.total_upgrades == 0
    assert not r.invalidation_mask.any()


def test_write_ping_pong():
    # alternating writes to one line: the first by each thread is cold,
    # every later access finds its copy invalidated
    r = msi([3] * 6, [1] * 6, [0, 1, 0, 1, 0, 1], 2)
    assert r.cold.tolist() == [1, 1]
    assert r.invalidations.tolist() == [2, 2]
    assert r.invalidation_mask.tolist() == [False, False, True, True, True, True]
    # every write after the first found another thread's copy to kill
    assert r.upgrades.tolist() == [2, 3]


def test_false_sharing_pattern_distinct_elements_same_line():
    # the classic: t0 writes element a, t1 writes element b, same line.
    # the oracle works on line ids, so this is indistinguishable from
    # true sharing here — classification happens in the static analyzer
    r = msi([5, 5, 5, 5], [1, 1, 1, 1], [0, 1, 0, 1], 2)
    assert r.invalidations.tolist() == [1, 1]


def test_write_invalidates_all_readers():
    # three readers share the line, then t3 writes: each reader's next
    # access is an invalidation miss
    lines = [9, 9, 9, 9, 9, 9, 9]
    writes = [0, 0, 0, 1, 0, 0, 0]
    tids = [0, 1, 2, 3, 0, 1, 2]
    r = msi(lines, writes, tids, 4)
    assert r.cold.tolist() == [1, 1, 1, 1]
    assert r.invalidations.tolist() == [1, 1, 1, 0]
    assert r.upgrades.tolist() == [0, 0, 0, 1]


def test_writer_rereads_own_line_for_free():
    # a write leaves the writer with the only valid copy
    r = msi([2, 2, 2], [1, 0, 0], [0, 0, 0], 2)
    assert r.cold.tolist() == [1, 0]
    assert r.total_invalidations == 0


def test_upgrade_counts_only_when_another_copy_dies():
    # t0 writes its own exclusive line twice: no upgrade either time
    r = msi([4, 4], [1, 1], [0, 0], 2)
    assert r.total_upgrades == 0


def test_distinct_lines_are_independent():
    # threads writing disjoint lines never interact
    r = msi([0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1], [0, 1, 0, 1, 0, 1], 2)
    assert r.total_invalidations == 0
    assert r.cold.tolist() == [1, 1]


def test_empty_stream():
    r = msi([], [], [], 3)
    assert r.accesses == 0 and r.lines == 0
    assert r.total_cold == 0 and r.total_invalidations == 0


def test_line_ids_are_labels_not_indices():
    # arbitrary (large, negative) line labels are fine
    r = msi([10**12, -5, 10**12], [1, 0, 1], [0, 0, 1], 2)
    assert r.lines == 2
    assert r.cold.tolist() == [2, 1]


def test_column_length_mismatch_raises():
    with pytest.raises(ValueError, match="lengths differ"):
        msi([0, 1], [1], [0, 0], 2)


def test_thread_count_bounds():
    with pytest.raises(ValueError):
        msi([0], [1], [0], 0)
    with pytest.raises(ValueError, match="63"):
        msi([0], [1], [0], 64)
    # 63 is the last representable bitmask width
    r = msi([0], [0], [62], 63)
    assert r.cold[62] == 1


@pytest.mark.parametrize("tid", [2, 5, -1])
def test_thread_id_out_of_range_names_the_id(tid):
    # an id outside 0..threads-1 is a ValueError naming it, not an
    # IndexError, a negative shift or a silently longer per-thread count
    with pytest.raises(ValueError, match=rf"thread id {tid} .*0\.\.1"):
        msi([0, 1, 0], [1, 0, 0], [0, tid, 1], 2)


# -- line reduction and miss accounting ----------------------------------------


def test_elements_reduce_to_lines():
    # line_bytes 32 / elem_bytes 8 = 4 elements per line: element keys
    # 0..3 are one line, 4..7 the next — the reduction every caller of
    # the automaton makes before handing it line ids
    keys = np.array([0, 3, 4, 7], dtype=np.int64)
    r = msi(keys // (L1_LINE_BYTES // ELEM_BYTES), [1, 1, 1, 1], [0, 1, 0, 1], 2)
    # keys 0,3 share line 0 (t0 then t1: cold+cold), keys 4,7 line 1
    assert r.lines == 2
    assert r.total_invalidations == 0
    assert r.total_cold == 4


def test_misses_are_cold_plus_invalidations():
    r = msi([0, 0, 0], [1, 1, 0], [0, 1, 0], 2)  # all on line 0
    assert r.total_cold == 2
    assert r.total_invalidations == 1
    assert r.invalidation_mask.tolist() == [False, False, True]
    # every miss is one or the other, and only invalidations are masked
    assert r.total_cold + r.total_invalidations == 3
    assert int(r.invalidation_mask.sum()) == r.total_invalidations


# -- the array automaton against the scalar oracle ----------------------------


def _agrees(lines, writes, tids, threads):
    r = msi(lines, writes, tids, threads)
    n_lines, cold, inval, upgrades, mask = scalar_msi(lines, writes, tids, threads)
    assert r.accesses == len(lines) and r.lines == n_lines
    assert r.cold.tolist() == cold
    assert r.invalidations.tolist() == inval
    assert r.upgrades.tolist() == upgrades
    assert r.invalidation_mask.tolist() == mask


@st.composite
def streams(draw):
    threads = draw(st.sampled_from([1, 2, 3, 4, 63]))
    n = draw(st.integers(0, 60))
    labels = draw(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["mixed", "all-write", "all-read"]))
    if kind == "mixed":
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        writes = [kind == "all-write"] * n
    tids = draw(st.lists(st.integers(0, threads - 1), min_size=n, max_size=n))
    return lines, writes, tids, threads


@settings(max_examples=300, deadline=None)
@given(streams())
@example(([], [], [], 1))
@example(([5, -(10**12), 5, 5], [True] * 4, [62, 0, 0, 62], 63))
@example(([10**12, 3, 10**12, 3], [False] * 4, [0, 1, 1, 0], 2))
def test_array_automaton_matches_scalar_oracle(stream):
    """Empty streams, 1 and 63 threads, all-write and all-read streams and
    sparse line labels (large, negative) give the oracle's counts and mask."""
    _agrees(*stream)


def test_array_automaton_matches_scalar_oracle_on_a_long_stream():
    rng = np.random.default_rng(7)
    n = 5000
    lines = rng.integers(0, 40, n) * 1009 - 7
    writes = rng.random(n) < 0.3
    tids = rng.integers(0, 8, n)
    _agrees(lines.tolist(), writes.tolist(), tids.tolist(), 8)
