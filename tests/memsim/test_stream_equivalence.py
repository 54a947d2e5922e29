"""The hierarchy's safety net: the chunk loop == the chain stated inline.

``MemoryHierarchy`` runs one fixed loop per chunk — L1 over the full
stream, L2 over the L1 misses (with write-back accounting), TLB over the
full stream at page granularity, DRAM over the L2 fill stream.  It must
reproduce that chain, stated literally below with one call per level,
*exactly*, for both cache engines, on the random affine nests the codegen
suite fuzzes with (``conftest.random_programs``),
so a regression in the loop — e.g. filtering by a mask of the wrong
stream — cannot hide behind the 42 pinned golden variants.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import compile_variant
from repro.interp import trace_program as interp_trace
from repro.memsim import (
    ENGINES,
    octane,
    simulate_cache,
    simulate_cache_writeback,
    simulate_dram,
    simulate_stream,
)
from repro.obs import SpanCollector
from repro.stream import AddressStream

from conftest import random_programs

PARAMS = {"N": 9}
#: shrunk so N=9 nests actually stress every level (4 L1 lines, 32 L2
#: lines, 4 TLB entries)
MACHINE = octane().scaled(1 / 256)


def _traced(program):
    variant = compile_variant(program, "noopt")
    return interp_trace(variant.program, PARAMS, steps=2), variant.layout(PARAMS)


def _byte_stream(program):
    trace, layout = _traced(program)
    return layout.addresses(trace, in_bytes=True), trace.writes


@given(random_programs(), st.sampled_from(ENGINES))
@settings(max_examples=25, deadline=None)
def test_hierarchy_matches_pre_refactor_chain(program, engine):
    addresses, writes = _byte_stream(program)

    # the pre-refactor fixed pipeline, stated inline
    l1_miss = simulate_cache(MACHINE.l1, addresses, engine=engine)
    l2 = simulate_cache_writeback(
        MACHINE.l2, addresses[l1_miss], writes[l1_miss], engine=engine
    )
    tlb = simulate_cache_writeback(
        MACHINE.tlb.as_cache(), addresses, None, engine=engine
    )

    stats = simulate_stream(
        AddressStream(addresses, writes), MACHINE, engine=engine
    )
    assert stats.accesses == len(addresses)
    assert stats.l1_misses == int(l1_miss.sum())
    assert stats.l2_misses == l2.misses
    assert stats.l2_writebacks == l2.writebacks
    assert stats.tlb_misses == tlb.misses

    # ... and the DRAM level replays exactly the L2 fill stream
    dram = simulate_dram(
        MACHINE.dram,
        addresses[l1_miss][l2.miss],
        MACHINE.l2.line_bytes,
        writebacks=l2.writebacks,
    )
    assert stats.dram_row_hits == dram.row_hits
    assert stats.dram_row_misses == dram.row_misses
    assert stats.dram_banks_touched == dram.banks_touched
    assert stats.dram_energy_nj == dram.energy_nj


@given(random_programs().map(lambda program: AddressStream(*_byte_stream(program))))
@example(AddressStream(np.zeros(0, dtype=np.int64)))
@settings(max_examples=15, deadline=None)
def test_engines_bit_identical_through_hierarchy(stream):
    stats = {}
    for engine in ENGINES:
        with SpanCollector() as collector:
            stats[engine] = simulate_stream(stream, MACHINE, engine=engine)
        # one span per level, whatever the stream (none at all included)
        names = [ev.name for ev in collector.events]
        assert sorted(names) == ["dram", "l1", "l2", "tlb"]
    assert stats["fast"] == stats["reference"]
    if len(stream) == 0:
        counts = dataclasses.asdict(stats["fast"])
        for geometry in ("machine", "l1_line_bytes", "l2_line_bytes"):
            del counts[geometry]
        assert set(counts.values()) == {0}, counts
