"""The paper's memory hierarchy: L1 → L2 → TLB → DRAM over one stream.

Both machines are measured on one fixed stack (paper §4.2).  Per chunk
of the stream, in this order:

* the L1 over every access (write-through: no write-back accounting);
* the L2 over exactly the L1 misses, with write-backs;
* the TLB over every access, at page granularity;
* the DRAM over the L2 fill stream (row buffers, banks, energy).

Data transferred from memory is (L2 misses + write-backs) x L2 line
size — the quantity the paper's §6 table normalizes — and execution time
is synthesized from the additive :class:`TimingModel`.

The stream arrives in chunks (:meth:`MemoryHierarchy.simulate_chunks`;
:meth:`MemoryHierarchy.simulate` slices whole arrays into them), so no
level holds more than one chunk.  Each cache level carries its
:class:`~repro.memsim.cache.LRUState` and running counts from chunk to
chunk, the DRAM its :class:`DRAMResult` (DESIGN §9.3), and each level
runs under one :mod:`repro.obs` span for all chunks.  The counts land in
a :class:`HierarchyResult`, which :func:`stats_from_hierarchy` folds into
the flat :class:`MemStats` record the harness caches and compares
bit-for-bit across engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, MutableMapping, Optional

import numpy as np

from ..interp import trace as _trace
from ..lang import SimulationError
from ..obs import ChunkedSpan
from .cache import CacheConfig, LRUState, default_engine, simulate_cache_writeback
from .dram import DRAMResult, simulate_dram
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


@dataclass(frozen=True)
class HierarchyResult:
    """The counts of one hierarchy simulation over a whole stream."""

    accesses: int
    l1_misses: int
    l2_misses: int
    l2_writebacks: int
    tlb_misses: int
    dram: DRAMResult


class _Cache:
    """One cache level between chunks: its span, its end state, and its
    counts so far."""

    def __init__(self, name: str, config: CacheConfig, engine: str) -> None:
        self.config = config
        self.span = ChunkedSpan(name, engine=engine)
        self.state: Optional[LRUState] = None
        self.misses = 0
        #: write-backs of every chunk so far, bar the dirty residue
        self.evicted = 0
        #: the engine's work counters (``heads=``, ``far=``), summed
        self.work: dict = {}

    @property
    def writebacks(self) -> int:
        """Evictions so far plus the final flush of the dirty residue."""
        return self.evicted + (0 if self.state is None else self.state.dirty_lines)

    def simulate(
        self, addresses: np.ndarray, writes: Optional[np.ndarray], engine: Optional[str]
    ) -> np.ndarray:
        """One chunk, continued from the carried state: its miss mask."""
        with self.span.chunk() as sp:
            result = simulate_cache_writeback(
                self.config, addresses, writes, engine, self.state
            )
            self.state = result.state
            self.misses += result.misses
            self.evicted += result.writebacks - result.state.dirty_lines
            for key, value in result.work.items():
                self.work[key] = self.work.get(key, 0) + value
            sp.attrs.update(self.work, misses=self.misses)
        return result.miss


class MemoryHierarchy:
    """The paper's stack on one machine: L1, L2 (sees the L1 misses),
    TLB, DRAM (sees the L2 misses)."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    @classmethod
    def standard(cls, machine: MachineConfig) -> "MemoryHierarchy":
        return cls(machine)

    def simulate(
        self,
        addresses: np.ndarray,
        writes: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
        timings: Optional[MutableMapping[str, float]] = None,
    ) -> HierarchyResult:
        """Run a whole stream through every level.

        ``addresses`` may be a raw int64 array or an
        :class:`~repro.stream.AddressStream` (its write column is used
        when ``writes`` is omitted).  The arrays go through
        :meth:`simulate_chunks` in slices of ``CHUNK_ACCESSES``.
        """
        if writes is None and hasattr(addresses, "writes"):
            writes = addresses.writes
        addresses = np.asarray(addresses, dtype=np.int64)
        writes = (
            np.zeros(len(addresses), dtype=bool)
            if writes is None
            else np.asarray(writes, dtype=bool)
        )
        step = _trace.CHUNK_ACCESSES
        return self.simulate_chunks(
            (
                (addresses[lo : lo + step], writes[lo : lo + step])
                for lo in range(0, len(addresses), step)
            ),
            engine=engine,
            timings=timings,
        )

    def simulate_chunks(
        self,
        chunks: Iterable[tuple[np.ndarray, np.ndarray]],
        engine: Optional[str] = None,
        timings: Optional[MutableMapping[str, float]] = None,
    ) -> HierarchyResult:
        """Run consecutive ``(addresses, writes)`` chunks of one stream
        through every level; the result is the whole stream's.

        Each level runs under one obs span named after it (``l1``,
        ``l2``, ``tlb``, ``dram``), whatever the number of chunks; its
        seconds accumulate into ``timings``.
        """
        machine = self.machine
        resolved = engine or default_engine()
        l1 = _Cache("l1", machine.l1, resolved)
        l2 = _Cache("l2", machine.l2, resolved)
        tlb = _Cache("tlb", machine.tlb.as_cache(), resolved)
        dram_span = ChunkedSpan("dram", engine=resolved)
        dram: Optional[DRAMResult] = None
        accesses = 0
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        for addresses, writes in _at_least_one(chunks, empty):
            accesses += len(addresses)
            # one index column, two gathers: cheaper than two boolean
            # selections at cache miss densities
            missed = np.flatnonzero(l1.simulate(addresses, None, engine))
            l1_addresses = addresses.take(missed)
            l2_miss = l2.simulate(l1_addresses, writes.take(missed), engine)
            tlb.simulate(addresses, None, engine)
            fills = l1_addresses[l2_miss]
            with dram_span.chunk() as sp:
                dram = simulate_dram(
                    machine.dram,
                    fills,
                    machine.l2.line_bytes,
                    writebacks=l2.writebacks,
                    previous=dram,
                )
                sp.attrs["misses"] = dram.row_misses  # the activates
        if timings is not None:
            for sp in (l1.span, l2.span, tlb.span, dram_span):
                name = sp.event.name
                timings[name] = timings.get(name, 0.0) + sp.duration_s
        return HierarchyResult(
            accesses=accesses,
            l1_misses=l1.misses,
            l2_misses=l2.misses,
            l2_writebacks=l2.writebacks,
            tlb_misses=tlb.misses,
            dram=dram,
        )


def _at_least_one(chunks: Iterable, empty) -> Iterable:
    """``chunks``, or ``empty`` alone when there are none: a hierarchy
    over no accesses still reports every level."""
    seen = False
    for chunk in chunks:
        seen = True
        yield chunk
    if not seen:
        yield empty


def stats_from_hierarchy(
    outcome: HierarchyResult, machine: MachineConfig
) -> MemStats:
    """Fold the hierarchy's counts into the flat cached/compared record."""
    n, n1, n2, nt = (
        outcome.accesses, outcome.l1_misses, outcome.l2_misses, outcome.tlb_misses
    )
    t = machine.timing
    cycles = (
        n * t.cycles_per_access
        + n1 * t.l1_miss_cycles
        + n2 * t.l2_miss_cycles
        + nt * t.tlb_miss_cycles
    )
    latency_seconds = cycles / (t.clock_mhz * 1e6)
    bandwidth_seconds = (
        (n2 + outcome.l2_writebacks) * machine.l2.line_bytes
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
        l2_writebacks=outcome.l2_writebacks,
        dram_row_hits=dram.row_hits,
        dram_row_misses=dram.row_misses,
        dram_banks_touched=dram.banks_touched,
        dram_energy_nj=dram.energy_nj,
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
    imported traces replay with one call); a stream of element keys is a
    :class:`SimulationError`.  ``engine`` selects the simulation
    implementation (see :data:`repro.memsim.cache.ENGINES`).  Each level
    runs under an :mod:`repro.obs` span named after it
    (``l1``/``l2``/``tlb``/``dram``); when ``timings`` is a mapping the
    same per-stage seconds are accumulated into it.  The stream is
    simulated in chunks (:meth:`MemoryHierarchy.simulate`), so the
    simulation holds nothing proportional to it.
    """
    if stream.meta.unit != "bytes":
        raise SimulationError(
            f"cannot simulate a stream of {stream.meta.unit}: the hierarchy "
            f"needs byte addresses (lay the trace out first)"
        )
    outcome = MemoryHierarchy(machine).simulate(
        stream.addresses, stream.writes, engine=engine, timings=timings
    )
    return stats_from_hierarchy(outcome, machine)
