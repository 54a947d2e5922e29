"""The refactor's safety net: hierarchy simulation == the legacy chain.

``simulate_stream`` used to be a fixed inline pipeline — L1 over the
full stream, L2 over the L1 misses (with write-back accounting), TLB
over the full stream at page granularity.  The composable
:class:`MemoryHierarchy` must reproduce that chain *exactly*, for both
cache engines, on hypothesis-generated affine nests.  The suite states
the old semantics literally (the inline chain below) so a regression in
the level-chaining logic — e.g. filtering by a mask of the wrong
stream — cannot hide behind the 42 pinned golden variants.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_variant
from repro.interp import trace_program as interp_trace
from repro.lang import parse, validate
from repro.memsim import (
    ENGINES,
    octane,
    simulate_cache,
    simulate_cache_writeback,
    simulate_dram,
    simulate_hierarchy,
    simulate_stream,
)
from repro.stream import AddressStream

PARAMS = {"N": 9}
#: shrunk so N=9 nests actually stress every level (4 L1 lines, 32 L2
#: lines, 4 TLB entries)
MACHINE = octane().scaled(1 / 256)


@st.composite
def subscript(draw, indices):
    idx = draw(st.sampled_from(indices))
    offset = draw(st.integers(0, 3))
    return f"{idx} + {offset}" if offset else idx


@st.composite
def assignment(draw, indices):
    arr = draw(st.sampled_from(["A", "B", "C"]))
    if arr == "C":
        target = f"C[{draw(subscript(indices))}, {draw(subscript(indices))}]"
    else:
        target = f"{arr}[{draw(subscript(indices))}]"
    src = draw(st.sampled_from(["A", "B", "C"]))
    if src == "C":
        value = f"C[{draw(subscript(indices))}, {draw(subscript(indices))}]"
    else:
        value = f"{src}[{draw(subscript(indices))}]"
    return f"{target} = f({value})"


@st.composite
def nest(draw):
    lines = []
    lo = draw(st.integers(1, 2))
    hi = draw(st.sampled_from(["N", "N - 1", "N + 1"]))
    lines.append(f"for i = {lo}, {hi} {{")
    indices = ["i"]
    if draw(st.booleans()):
        jlo, jhi = draw(
            st.sampled_from([("1", "N"), ("1", "i"), ("i", "N"), ("2", "i")])
        )
        lines.append(f"  for j = {jlo}, {jhi} {{")
        indices = ["i", "j"]
    for _ in range(draw(st.integers(1, 3))):
        lines.append("    " + draw(assignment(indices)))
    if len(indices) == 2:
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


@st.composite
def random_programs(draw):
    nests = [draw(nest()) for _ in range(draw(st.integers(1, 3)))]
    source = (
        "program rand\n"
        "param N\n"
        "real A[N + 4], B[N + 4], C[N + 4, N + 4]\n" + "\n".join(nests)
    )
    return validate(parse(source))


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


@given(random_programs())
@settings(max_examples=15, deadline=None)
def test_engines_bit_identical_through_hierarchy(program):
    stream = AddressStream(*_byte_stream(program))
    fast = simulate_stream(stream, MACHINE, engine="fast")
    ref = simulate_stream(stream, MACHINE, engine="reference")
    assert fast == ref


@given(random_programs())
@settings(max_examples=10, deadline=None)
def test_stream_front_door_is_equivalent(program):
    # the trace-level convenience is the stream front door, not a second
    # address materialisation
    trace, layout = _traced(program)
    timings = {}
    stats = simulate_hierarchy(trace, layout, MACHINE, timings=timings)
    assert stats == simulate_stream(AddressStream.from_trace(trace, layout), MACHINE)
    assert {"addresses", "l1", "l2", "tlb", "dram"} <= set(timings)
