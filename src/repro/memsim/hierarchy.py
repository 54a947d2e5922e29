"""Whole-hierarchy simulation: trace + layout + machine -> miss counts.

The fixed pipeline lives in :mod:`repro.memsim.levels` now — the
standard stack is L1 (sees every access), L2 (sees exactly the L1
misses), TLB (every access at page granularity), and DRAM (the L2 fill
stream, with row-buffer and energy accounting).  Data transferred from
memory is L2 misses x L2 line size — the quantity the paper's §6 table
normalizes — and execution time is synthesized from the additive
:class:`TimingModel`.  This module keeps the stable entry points
(`simulate_stream`, `simulate_hierarchy`) and folds a
:class:`HierarchyResult` down to the flat :class:`MemStats` record the
harness caches and compares bit-for-bit across engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping, Optional

from ..core.regroup.layout import Layout
from ..interp.trace import AccessTrace
from ..obs import span
from ..stream import AddressStream
from .levels import HierarchyResult, MemoryHierarchy
from .machine import MachineConfig


@dataclass(frozen=True)
class MemStats:
    """Result of simulating one program variant on one machine."""

    machine: str
    accesses: int
    l1_misses: int
    l2_misses: int
    tlb_misses: int
    l1_line_bytes: int
    l2_line_bytes: int
    seconds: float
    #: dirty L2 lines written back to memory (outbound bandwidth)
    l2_writebacks: int = 0
    #: DRAM row-buffer outcome of the L2 fill stream (0 on entries
    #: cached before the DRAM level existed)
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    dram_banks_touched: int = 0
    #: energy the memory device spent on this run (nanojoules)
    dram_energy_nj: float = 0.0

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.accesses if self.accesses else 0.0

    @property
    def tlb_miss_rate(self) -> float:
        return self.tlb_misses / self.accesses if self.accesses else 0.0

    @property
    def data_transferred_bytes(self) -> int:
        """Bytes moved between memory and cache in both directions (the
        bandwidth the program actually consumed): line fills plus dirty
        write-backs."""
        return (self.l2_misses + self.l2_writebacks) * self.l2_line_bytes

    @property
    def l1_fill_bytes(self) -> int:
        """Bytes moved across the L2 -> L1 boundary (L1 fills)."""
        return self.l1_misses * self.l1_line_bytes

    @property
    def effective_bandwidth_bytes_s(self) -> float:
        """Memory traffic over synthesized run time: §6's headline lens."""
        return self.data_transferred_bytes / self.seconds if self.seconds else 0.0

    @property
    def dram_row_hit_rate(self) -> float:
        fills = self.dram_row_hits + self.dram_row_misses
        return self.dram_row_hits / fills if fills else 0.0

    def normalized_to(self, base: "MemStats") -> dict[str, float]:
        def ratio(a: float, b: float) -> float:
            return a / b if b else (0.0 if a == 0 else float("inf"))

        return {
            "time": ratio(self.seconds, base.seconds),
            "l1": ratio(self.l1_misses, base.l1_misses),
            "l2": ratio(self.l2_misses, base.l2_misses),
            "tlb": ratio(self.tlb_misses, base.tlb_misses),
        }


def stats_from_hierarchy(
    outcome: HierarchyResult, machine: MachineConfig
) -> MemStats:
    """Fold per-level results down to the flat cached/compared record."""
    l1, l2, tlb = outcome["l1"], outcome["l2"], outcome["tlb"]
    n, n1, n2, nt = outcome.accesses, l1.misses, l2.misses, tlb.misses
    t = machine.timing
    cycles = (
        n * t.cycles_per_access
        + n1 * t.l1_miss_cycles
        + n2 * t.l2_miss_cycles
        + nt * t.tlb_miss_cycles
    )
    latency_seconds = cycles / (t.clock_mhz * 1e6)
    bandwidth_seconds = (
        (n2 + l2.writebacks) * machine.l2.line_bytes
    ) / (t.bandwidth_mb_s * 1e6)
    dram = outcome.dram
    return MemStats(
        machine=machine.name,
        accesses=n,
        l1_misses=n1,
        l2_misses=n2,
        tlb_misses=nt,
        l1_line_bytes=machine.l1.line_bytes,
        l2_line_bytes=machine.l2.line_bytes,
        seconds=max(latency_seconds, bandwidth_seconds),
        l2_writebacks=l2.writebacks,
        dram_row_hits=dram.row_hits if dram is not None else 0,
        dram_row_misses=dram.row_misses if dram is not None else 0,
        dram_banks_touched=dram.banks_touched if dram is not None else 0,
        dram_energy_nj=dram.energy_nj if dram is not None else 0.0,
    )


def simulate_stream(
    stream,
    machine: MachineConfig,
    engine: Optional[str] = None,
    timings: Optional[MutableMapping[str, float]] = None,
) -> MemStats:
    """Simulate L1 -> L2 -> TLB -> DRAM over an address stream.

    ``stream`` is an :class:`~repro.stream.AddressStream` of byte
    addresses (its write column rides along, so cached streams and
    imported traces replay with one call).  ``engine`` selects the
    simulation implementation (see :data:`repro.memsim.cache.ENGINES`).
    Each level runs under an :mod:`repro.obs` span named after it
    (``l1``/``l2``/``tlb``/``dram``); when ``timings`` is a mapping the
    same per-stage seconds are accumulated into it.  The stream is
    simulated in chunks (:meth:`MemoryHierarchy.simulate`), so the
    simulation holds nothing proportional to it.
    """
    outcome = MemoryHierarchy.standard(machine).simulate(
        stream.addresses, stream.writes, engine=engine, timings=timings
    )
    return stats_from_hierarchy(outcome, machine)


def simulate_hierarchy(
    trace: AccessTrace,
    layout: Layout,
    machine: MachineConfig,
    engine: Optional[str] = None,
    timings: Optional[MutableMapping[str, float]] = None,
) -> MemStats:
    """Trace-level convenience: lay ``trace`` out, then :func:`simulate_stream`.

    The address materialisation runs under an ``addresses`` span (and
    ``timings`` key) next to the per-level ones.
    """
    with span(
        "addresses", accesses=len(trace), divmods=layout.divmods(trace.array_names)
    ) as sp:
        stream = AddressStream.from_trace(trace, layout)
    if timings is not None:
        timings["addresses"] = timings.get("addresses", 0.0) + sp.duration_s
    return simulate_stream(stream, machine, engine=engine, timings=timings)
