"""The shared OpenMP schedule machinery (repro.static.schedule).

One partitioning implementation serves the static predictors
(multicore, coherence) and the dynamic interleaved replay; these tests
pin its contract: spec parsing, chunk shapes per schedule, chunk-
boundary placement for ``static,k`` and ``guided``, affinity, the
dynamic rotation, and the round-robin drain order.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import drain_positions, round_robin_order
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.static.schedule import (
    chunk_count,
    parse_schedule,
    preserves_affinity,
    round_robin_positions,
    schedule_assignments,
    schedule_chunks,
    thread_span,
)

# -- parsing -------------------------------------------------------------------


def test_parse_plain_kinds():
    assert parse_schedule("static") == ("static", 0)
    assert parse_schedule("dynamic") == ("dynamic", 0)
    assert parse_schedule("guided") == ("guided", 0)
    assert parse_schedule(" STATIC , 3 ") == ("static", 3)


def test_parse_static_chunk():
    assert parse_schedule("static,1") == ("static", 1)
    assert parse_schedule("static,16") == ("static", 16)


@pytest.mark.parametrize(
    "bad", ["stat", "static,0", "static,-2", "static,x", "guided,2",
            "dynamic,4", ""]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_schedule(bad)


def test_affinity():
    assert preserves_affinity("static")
    assert preserves_affinity("static,2")
    assert preserves_affinity("guided")
    assert not preserves_affinity("dynamic")


# -- static blocks -------------------------------------------------------------


def test_static_blocks_cover_range_contiguously():
    asg = schedule_assignments(1, 10, 4, "static")
    assert asg == [(1, 3, 0), (4, 6, 1), (7, 9, 2), (10, 10, 3)]


def test_static_more_threads_than_iterations():
    asg = schedule_assignments(1, 2, 4, "static")
    assert asg == [(1, 1, 0), (2, 2, 1)]
    chunks = schedule_chunks(1, 2, 4, "static")
    assert chunks[2] == [] and chunks[3] == []


def test_empty_range():
    assert schedule_assignments(5, 4, 2, "static") == []
    assert thread_span(5, 4, 2, 0, "static") == (5, 4)


# -- static,k chunk boundaries -------------------------------------------------


def test_static_k_deals_chunks_round_robin():
    # 10 iterations, chunk 2, 3 threads: chunks at 1-2,3-4,5-6,7-8,9-10
    # dealt 0,1,2,0,1
    asg = schedule_assignments(1, 10, 3, "static,2")
    assert asg == [
        (1, 2, 0), (3, 4, 1), (5, 6, 2), (7, 8, 0), (9, 10, 1),
    ]
    chunks = schedule_chunks(1, 10, 3, "static,2")
    assert chunks[0] == [(1, 2), (7, 8)]
    assert chunks[2] == [(5, 6)]


def test_static_k_ragged_tail():
    # chunk 4 over 9 iterations: last chunk is short
    asg = schedule_assignments(1, 9, 2, "static,4")
    assert asg == [(1, 4, 0), (5, 8, 1), (9, 9, 0)]


def test_static_k_chunk_boundaries_count():
    # C chunks = ceil(n/k); extra boundaries beyond plain blocking are
    # what the multicore boundary model charges for
    assert chunk_count(1, 16, 4, "static") == 4
    assert chunk_count(1, 16, 4, "static,2") == 8
    assert chunk_count(1, 16, 4, "static,1") == 16


def test_static_k_affinity_across_invocations():
    # static,k ignores the invocation counter: same chunks every time
    a = schedule_assignments(1, 12, 3, "static,2", invocation=0)
    b = schedule_assignments(1, 12, 3, "static,2", invocation=5)
    assert a == b


def test_static_k_span_is_noncontiguous_hull():
    # thread 0's chunks 1-2 and 7-8: the span hull covers the gap
    assert thread_span(1, 10, 3, 0, "static,2") == (1, 8)


# -- guided --------------------------------------------------------------------


def test_guided_chunks_decrease_and_cover():
    asg = schedule_assignments(1, 20, 4, "guided")
    # ceil(remaining/T): 5,4,3,2,2,1,1,1,1
    sizes = [b - a + 1 for a, b, _ in asg]
    assert sizes == [5, 4, 3, 2, 2, 1, 1, 1, 1]
    assert all(s1 >= s2 for s1, s2 in zip(sizes, sizes[1:]))
    # covers [1,20] in order without gaps
    flat = [(a, b) for a, b, _ in asg]
    assert flat[0][0] == 1 and flat[-1][1] == 20
    for (a1, b1), (a2, b2) in zip(flat, flat[1:]):
        assert a2 == b1 + 1
    # dealt round-robin
    assert [t for _, _, t in asg] == [0, 1, 2, 3, 0, 1, 2, 3, 0]


def test_guided_never_stalls_at_zero():
    asg = schedule_assignments(1, 3, 8, "guided")
    assert [b - a + 1 for a, b, _ in asg] == [1, 1, 1]


def test_guided_deterministic_across_invocations():
    a = schedule_assignments(1, 20, 4, "guided", invocation=0)
    b = schedule_assignments(1, 20, 4, "guided", invocation=3)
    assert a == b


# -- dynamic rotation ----------------------------------------------------------


def test_dynamic_rotates_thread_assignment_per_invocation():
    base = schedule_assignments(1, 12, 3, "dynamic", invocation=0)
    rot = schedule_assignments(1, 12, 3, "dynamic", invocation=1)
    assert [(a, b) for a, b, _ in base] == [(a, b) for a, b, _ in rot]
    assert [t for _, _, t in rot] == [(t + 1) % 3 for _, _, t in base]
    # full cycle returns to the original assignment
    cyc = schedule_assignments(1, 12, 3, "dynamic", invocation=3)
    assert cyc == base


# -- every schedule: partition invariants --------------------------------------


@pytest.mark.parametrize(
    "schedule", ["static", "static,1", "static,3", "guided", "dynamic"]
)
@pytest.mark.parametrize("lo,hi,threads", [(1, 17, 4), (0, 0, 3), (2, 25, 7)])
def test_partition_is_exact_cover(schedule, lo, hi, threads):
    seen = []
    for a, b, t in schedule_assignments(lo, hi, threads, schedule):
        assert 0 <= t < threads
        assert lo <= a <= b <= hi
        seen.extend(range(a, b + 1))
    assert seen == list(range(lo, hi + 1))


def test_threads_must_be_positive():
    with pytest.raises(ValueError):
        schedule_assignments(1, 10, 0, "static")


# -- round-robin drain order ---------------------------------------------------
#
# ``round_robin_order`` (conftest) is the drain spelled out run by run;
# ``round_robin_positions`` is the same drain in closed form.


def positions(lengths, block=1):
    return [p.tolist() for p in round_robin_positions(lengths, block)]


def test_round_robin_order_block1():
    # streams of length 3,1,2 drain 0,1,2, 0,2, 0
    assert round_robin_order([3, 1, 2], 1) == [
        (0, 0, 1), (1, 0, 1), (2, 0, 1),
        (0, 1, 2), (2, 1, 2),
        (0, 2, 3),
    ]
    assert positions([3, 1, 2], 1) == [[0, 3, 5], [1], [2, 4]]


def test_round_robin_order_blocked():
    assert round_robin_order([5, 2], 2) == [
        (0, 0, 2), (1, 0, 2), (0, 2, 4), (0, 4, 5)
    ]
    assert positions([5, 2], 2) == [[0, 1, 4, 5, 6], [2, 3]]


def test_round_robin_order_rejects_bad_block():
    with pytest.raises(ValueError, match="block must be >= 1, got 0"):
        round_robin_positions([1, 2], 0)


def test_round_robin_order_total_preserved():
    # a zero-length stream in the middle, a block larger than a stream
    lengths = [7, 0, 3, 11]
    drained = [0] * len(lengths)
    for k, p, q in round_robin_order(lengths, 3):
        assert drained[k] == p  # runs arrive in stream order
        drained[k] = q
    assert drained == lengths
    assert positions(lengths, 3) == drain_positions(lengths, 3)
    assert positions(lengths, 64) == drain_positions(lengths, 64)
    assert positions([], 1) == [] and positions([0, 0], 2) == [[], []]


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 40), max_size=63),
    block=st.integers(1, 8),
)
def test_positions_are_the_reference_drain(lengths, block):
    got = round_robin_positions(lengths, block)
    assert [p.tolist() for p in got] == drain_positions(lengths, block)
    # what the interleaver relies on: the scatters fill every merged slot
    # once, and `keys[tids == t]` is thread t's own stream in its own order
    assert sorted(x for p in got for x in p.tolist()) == list(
        range(sum(lengths))
    )
    assert all((np.diff(p) > 0).all() for p in got)
