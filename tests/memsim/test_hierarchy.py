"""Whole-hierarchy simulation and timing-model tests."""

import numpy as np
import pytest

from repro.core.regroup import default_layout
from repro.interp import trace_program
from repro.lang import SimulationError
from repro.memsim import (
    MemoryHierarchy,
    octane,
    origin2000,
    scaled_machine,
    simulate_stream,
)
from repro.stream import AddressStream

from conftest import build


@pytest.fixture
def small_machine():
    return scaled_machine(origin2000(), 1024, 8 * 1024, 8, 1024)


def make_stats(src, n, machine, steps=1):
    p = build(src)
    trace = trace_program(p, {"N": n}, steps=steps)
    stream = AddressStream.from_trace(trace, default_layout(p, {"N": n}))
    return simulate_stream(stream, machine)


STREAM = """
program t
param N
real A[N], B[N]
for i = 1, N { B[i] = f(A[i]) }
"""


def test_l2_sees_only_l1_misses(small_machine):
    stats = make_stats(STREAM, 4096, small_machine)
    assert stats.l2_misses <= stats.l1_misses
    assert stats.l1_misses <= stats.accesses


def test_streaming_miss_rates(small_machine):
    stats = make_stats(STREAM, 4096, small_machine)
    # 8-byte elements: 4 per 32B L1 line, 16 per 128B L2 line
    assert stats.l1_miss_rate == pytest.approx(0.25, rel=0.05)
    assert stats.l2_misses == pytest.approx(2 * 4096 * 8 / 128, rel=0.05)


def test_repeat_hits_when_fits(small_machine):
    # N small enough that both arrays fit in L2: second step ~no L2 misses
    one = make_stats(STREAM, 256, small_machine, steps=1)
    two = make_stats(STREAM, 256, small_machine, steps=2)
    assert two.l2_misses <= one.l2_misses * 1.1


def test_data_transferred(small_machine):
    stats = make_stats(STREAM, 4096, small_machine)
    # inbound fills plus outbound dirty write-backs
    assert stats.data_transferred_bytes == (
        stats.l2_misses + stats.l2_writebacks
    ) * 128
    # the kernel writes all of B: roughly B's lines come back out
    assert stats.l2_writebacks == pytest.approx(4096 * 8 / 128, rel=0.1)


def test_timing_monotone_in_misses(small_machine):
    fast = make_stats(STREAM, 256, small_machine, steps=4)
    slow = make_stats(STREAM, 4096, small_machine)
    assert slow.seconds / slow.accesses > fast.seconds / fast.accesses


def test_normalized_to():
    a = make_stats(STREAM, 4096, small_machine_inst := scaled_machine(origin2000(), 1024, 8192, 8, 1024))
    norm = a.normalized_to(a)
    assert norm == {"time": 1.0, "l1": 1.0, "l2": 1.0, "tlb": 1.0}


def test_machines_structural_parameters():
    oct_, org = octane(), origin2000()
    assert oct_.l1.size_bytes == 32 * 1024
    assert oct_.l2.size_bytes == 1024 * 1024
    assert org.l2.size_bytes == 4 * 1024 * 1024
    assert oct_.l1.assoc == org.l1.assoc == 2
    assert org.tlb.entries == 64


def test_scaled_machine_overrides():
    m = scaled_machine(origin2000(), 2048, 16 * 1024, 4, 512)
    assert m.l1.size_bytes == 2048
    assert m.l2.size_bytes == 16 * 1024
    assert m.tlb.entries == 4
    assert m.tlb.page_bytes == 512
    assert m.l1.line_bytes == 32  # preserved


def test_tlb_counts_pages(small_machine):
    # a strided walk touching a new page every access thrashes the TLB
    p = build(
        """
        program t
        param N
        real A[N, N]
        for i = 1, N { A[1, i] = 0.0 }
        """
    )
    n = 512  # row stride = 512*8 = 4096 bytes = 4 pages of 1KB
    trace = trace_program(p, {"N": n})
    stream = AddressStream.from_trace(trace, default_layout(p, {"N": n}))
    stats = simulate_stream(stream, small_machine)
    assert stats.tlb_misses == n  # every access a new page, 8-entry TLB


def test_a_marked_stream_starts_with_a_step(small_machine):
    # the TLB's count of later steps rests on an empty TLB at step 1
    addresses = np.arange(8, dtype=np.int64) * 1024
    chunk = (addresses, np.zeros(8, dtype=bool), (3, 6))
    with pytest.raises(SimulationError, match="must start with a step"):
        MemoryHierarchy(small_machine).simulate_chunks([chunk])
