"""The paper's memory hierarchy: L1 → L2 → TLB → DRAM over one stream.

Both machines are measured on one fixed stack (paper §4.2).  Per chunk
of the stream, in this order:

* the L1 over every access (write-through: no write-back accounting);
* the L2 over exactly the L1 misses, with write-backs;
* the TLB at page granularity, over every access, or, told where
  identical time steps begin, over the first step and the second one's
  warm-up (:class:`_Tlb`);
* the DRAM over the L2 fill stream (row buffers, banks, energy).

Data transferred from memory is (L2 misses + write-backs) x L2 line
size — the quantity the paper's §6 table normalizes — and execution time
is synthesized from the additive :class:`TimingModel`.

The stream arrives in pieces fed to one :class:`HierarchyRun`
(:meth:`MemoryHierarchy.simulate_chunks`; :meth:`MemoryHierarchy.simulate`
slices whole arrays into them), so no level holds more than one piece.
Each cache level carries its :class:`~repro.memsim.cache.LRUState` and
running counts from piece to piece, the DRAM its :class:`DRAMResult`
(DESIGN §9.3), and each level runs under one :mod:`repro.obs` span for
all pieces.  Between pieces the run's state and counts can be read
(:class:`Snapshot`): the measuring chain compares a later time step's
with step 1's and, at the first equal state, counts the rest of the run
instead of simulating it (:func:`repro.harness.simulate_steps`).  The
counts land in a :class:`HierarchyResult`, which
:func:`stats_from_hierarchy` folds into the flat :class:`MemStats`
record the harness caches and compares bit-for-bit across engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, MutableMapping, Optional, Sequence

import numpy as np

from .. import stream as _stream
from ..lang import SimulationError
from ..obs import ChunkedSpan
from .cache import CacheConfig, LRUState, default_engine, simulate_cache_writeback
from .dram import DRAMResult, dram_energy, simulate_dram
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
    """One cache level between pieces: its span, its end state, and its
    counts so far."""

    def __init__(self, name: str, config: CacheConfig, engine: str) -> None:
        self.config = config
        self.span = ChunkedSpan(name, engine=engine)
        self.state: Optional[LRUState] = None
        #: input accesses simulated
        self.accesses = 0
        self.misses = 0
        #: write-backs of every piece so far, bar the dirty residue
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
        """One piece, continued from the carried state: its miss mask."""
        with self.span.chunk() as sp:
            miss = self._run(addresses, writes, engine)
            sp.attrs.update(self.work, misses=self.misses, accesses=self.accesses)
        return miss

    def _run(
        self, addresses: np.ndarray, writes: Optional[np.ndarray], engine: Optional[str]
    ) -> np.ndarray:
        result = simulate_cache_writeback(
            self.config, addresses, writes, engine, self.state
        )
        self.state = result.state
        self.accesses += len(addresses)
        self.misses += result.misses
        self.evicted += result.writebacks - result.state.dirty_lines
        for key, value in result.work.items():
            self.work[key] = self.work.get(key, 0) + value
        return result.miss


class _Tlb(_Cache):
    """The TLB between chunks.  A fully-associative LRU level of C
    entries holds exactly the last C distinct pages touched (Mattson et
    al.'s stack property), so it forgets its start state once C
    distinct pages have passed.  Told where identical time steps begin
    (DESIGN §9.3), it simulates the first step in full and the second up
    to offset τ of the first step's C-th miss: from there on each step
    repeats the first one's hits and misses and ends in its end state,
    so every later step adds :attr:`per_step` misses and none is
    simulated.  Without steps it simulates every access."""

    def __init__(self, config: CacheConfig, engine: str) -> None:
        super().__init__("tlb", config, engine)
        self.capacity = config.num_lines  # C
        self.steps = 0  # step starts passed
        self.at = 0  # in-step offset of the next access
        self.tau: Optional[int] = None  # in-step offset of step 1's C-th miss
        self.first = 0  # step 1's misses, M1
        #: misses each step after the first adds, known once step 2 has
        #: passed τ; from then on the TLB simulates nothing
        self.per_step: Optional[int] = None

    def simulate_steps(
        self, addresses: np.ndarray, starts: Sequence[int], engine: Optional[str]
    ) -> None:
        """One chunk, ``starts`` the in-chunk offsets where a step begins."""
        with self.span.chunk() as sp:
            cuts = [0, *starts, len(addresses)]
            for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                if k:
                    self._start_step()
                self._piece(addresses[lo:hi], engine)
            sp.attrs.update(self.work, misses=self.misses, accesses=self.accesses)

    def total(self, steps: int) -> int:
        """The misses of a run of ``steps`` steps."""
        if self.per_step is None:
            return self.misses
        return self.first + (steps - 1) * self.per_step

    def _start_step(self) -> None:
        self.steps += 1
        self.at = 0
        if self.steps == 1 and self.state is not None:
            raise SimulationError("the stream must start with a step")
        if self.steps == 2:
            self.first = self.misses
            if self.first < self.capacity:  # a step touches < C pages: all hit
                self.per_step = 0

    def _piece(self, addresses: np.ndarray, engine: Optional[str]) -> None:
        n = len(addresses)
        if self.steps < 2 and n:
            before = self.misses
            miss = self._run(addresses, None, engine)
            if self.steps == 1 and self.tau is None and self.misses >= self.capacity:
                self.tau = self.at + int(np.flatnonzero(miss)[self.capacity - before - 1])
        elif self.steps >= 2 and self.per_step is None and n:
            take = min(n, self.tau + 1 - self.at)
            self._run(addresses[:take], None, engine)
            if self.at + take > self.tau:  # M1 + P misses, C of them step 1's by τ
                self.per_step = self.misses - self.capacity
        self.at += n


@dataclass(frozen=True)
class Snapshot:
    """The hierarchy between two pieces (:meth:`HierarchyRun.snapshot`)."""

    #: everything the caches carry into the next piece, so everything
    #: their later counts depend on: the L1's resident lines and the
    #: L2's (LRU order within each set), the L2's dirty bits, the DRAM's
    #: open rows
    state: tuple
    #: accesses, L1 misses, L2 misses, L2 evictions, DRAM row hits, then
    #: the DRAM's bytes per bank: what a repeated stretch adds up
    counts: np.ndarray

    def same_state(self, other: "Snapshot") -> bool:
        return all(map(np.array_equal, self.state, other.state))


class HierarchyRun:
    """One stream through the levels, fed a piece at a time.

    :meth:`feed` runs a piece through every level.  :meth:`caches` runs
    it through the L1, the L2 and the DRAM only, and :meth:`translate`
    through the TLB only: nothing reads the TLB's misses, so it may take
    its pieces whole while the caches take them cut.  Between pieces
    :meth:`snapshot` reads the caches' state and the counts, and
    :meth:`result` folds the counts into the run's
    :class:`HierarchyResult`, extrapolated over later time steps when
    the caches came back to a state step 1 was in (DESIGN §9.3).
    """

    def __init__(self, machine: MachineConfig, engine: Optional[str] = None) -> None:
        self.machine = machine
        self.engine = engine
        resolved = engine or default_engine()
        self.l1 = _Cache("l1", machine.l1, resolved)
        self.l2 = _Cache("l2", machine.l2, resolved)
        self.tlb = _Tlb(machine.tlb.as_cache(), resolved)
        self.dram_span = ChunkedSpan("dram", engine=resolved)
        #: the DRAM's running result, from the first piece on
        self.dram: Optional[DRAMResult] = None

    def feed(
        self, addresses: np.ndarray, writes: np.ndarray, starts: Sequence[int] = ()
    ) -> None:
        """One piece through every level, ``starts`` its in-piece offsets
        where a time step begins (:meth:`translate`)."""
        self.caches(addresses, writes)
        self.translate(addresses, starts)

    def caches(self, addresses: np.ndarray, writes: np.ndarray) -> None:
        """One piece through the L1, the L2 (its misses) and the DRAM
        (its fills)."""
        # one index column, two gathers: cheaper than two boolean
        # selections at cache miss densities
        missed = np.flatnonzero(self.l1.simulate(addresses, None, self.engine))
        l1_addresses = addresses.take(missed)
        l2_miss = self.l2.simulate(l1_addresses, writes.take(missed), self.engine)
        machine = self.machine
        with self.dram_span.chunk() as sp:
            self.dram = simulate_dram(
                machine.dram,
                l1_addresses[l2_miss],
                machine.l2.line_bytes,
                writebacks=self.l2.writebacks,
                previous=self.dram,
            )
            sp.attrs.update(misses=self.dram.row_misses, accesses=self.dram.fills)

    def translate(self, addresses: np.ndarray, starts: Sequence[int] = ()) -> None:
        """One piece through the TLB.  ``starts`` are the in-piece
        offsets where a time step begins; every step so marked must
        emit the same stream, and the first must begin it.  The TLB
        then simulates later steps only until they forget their start
        (:class:`_Tlb`); the count is the one every access would give."""
        self.tlb.simulate_steps(addresses, starts, self.engine)

    @property
    def warmup(self) -> int:
        """The accesses of a later step the TLB simulates before it counts
        the rest: τ + 1, none when step 1 touches fewer than C pages."""
        return 0 if self.tlb.tau is None else self.tlb.tau + 1

    @property
    def settled(self) -> bool:
        """Whether the TLB counts every later access without simulating
        it: step 2 has passed τ."""
        return self.tlb.per_step is not None

    def snapshot(self) -> Snapshot:
        """The state and counts after the pieces fed so far (one at least)."""
        l1, l2, dram = self.l1.state, self.l2.state, self.dram
        counts = [self.l1.accesses, self.l1.misses, self.l2.misses,
                  self.l2.evicted, dram.row_hits]
        return Snapshot(
            (l1.lines, l2.lines, l2.dirty, dram.open_rows),
            np.array([*counts, *dram.per_bank_bytes], dtype=np.int64),
        )

    def result(
        self,
        steps: int = 1,
        repeat: Optional[tuple[Snapshot, Snapshot]] = None,
        timings: Optional[MutableMapping[str, float]] = None,
    ) -> HierarchyResult:
        """The run's counts.  ``repeat`` is ``(end, at)``, step 1's
        snapshots at its end and at the in-step offset where step 2 now
        stands in ``at``'s state: from here on the run repeats step 1,
        so ``steps`` steps count ``end + (steps - 1) * (now - at)`` and
        end in ``end``'s state, whose dirty lines are the residue.  Each
        level's span gets the whole run's ``misses=`` and ``counted=``,
        its input accesses counted rather than simulated; the levels'
        seconds add into ``timings``."""
        now = self.snapshot()
        counts, ends = now.counts, now
        if repeat is not None:
            ends, at = repeat
            counts = ends.counts + (steps - 1) * (now.counts - at.counts)
        accesses, n1, n2, evicted, hits, *banks = (int(n) for n in counts)
        writebacks = evicted + int(np.count_nonzero(ends.state[2]))
        dram_config = self.machine.dram
        dram = DRAMResult(
            fills=n2,
            row_hits=hits,
            row_misses=n2 - hits,
            writebacks=writebacks,
            line_bytes=self.machine.l2.line_bytes,
            per_bank_bytes=np.array(banks, dtype=self.dram.per_bank_bytes.dtype),
            energy_nj=dram_energy(dram_config, n2, n2 - hits, writebacks),
            open_rows=ends.state[3],
        )
        tlb_misses = self.tlb.total(steps)
        for sp, misses, counted in (
            (self.l1.span, n1, accesses - self.l1.accesses),
            (self.l2.span, n2, n1 - self.l2.accesses),
            (self.tlb.span, tlb_misses, accesses - self.tlb.accesses),
            (self.dram_span, dram.row_misses, n2 - self.dram.fills),
        ):
            sp.event.attrs.update(misses=misses, counted=counted)
            if timings is not None:
                name = sp.event.name
                timings[name] = timings.get(name, 0.0) + sp.duration_s
        return HierarchyResult(
            accesses=accesses,
            l1_misses=n1,
            l2_misses=n2,
            l2_writebacks=writebacks,
            tlb_misses=tlb_misses,
            dram=dram,
        )


class MemoryHierarchy:
    """The paper's stack on one machine: L1, L2 (sees the L1 misses),
    TLB, DRAM (sees the L2 misses)."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    @classmethod
    def standard(cls, machine: MachineConfig) -> "MemoryHierarchy":
        return cls(machine)

    def start(self, engine: Optional[str] = None) -> HierarchyRun:
        """A run on this machine to feed a piece at a time."""
        return HierarchyRun(self.machine, engine)

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
        step = _stream.CHUNK_ACCESSES
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
        chunks: Iterable[tuple],
        engine: Optional[str] = None,
        timings: Optional[MutableMapping[str, float]] = None,
    ) -> HierarchyResult:
        """Run consecutive ``(addresses, writes)`` chunks of one stream
        through every level, every access simulated; the result is the
        whole stream's.

        Each level runs under one obs span named after it (``l1``,
        ``l2``, ``tlb``, ``dram``), whatever the number of chunks; its
        seconds accumulate into ``timings``.
        """
        run = self.start(engine)
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        for addresses, writes in _at_least_one(chunks, empty):
            run.feed(addresses, writes)
        return run.result(timings=timings)


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
) -> MemStats:
    """Simulate L1 -> L2 -> TLB -> DRAM over an address stream.

    ``stream`` is an :class:`~repro.stream.AddressStream` of byte
    addresses (its write column rides along, so cached streams and
    imported traces replay with one call); a stream of element keys is a
    :class:`SimulationError`.  ``engine`` selects the simulation
    implementation (see :data:`repro.memsim.cache.ENGINES`).  Each level
    runs under an :mod:`repro.obs` span named after it
    (``l1``/``l2``/``tlb``/``dram``).  The stream is
    simulated in chunks (:meth:`MemoryHierarchy.simulate`), so the
    simulation holds nothing proportional to it.
    """
    if stream.meta.unit != "bytes":
        raise SimulationError(
            f"cannot simulate a stream of {stream.meta.unit}: the hierarchy "
            f"needs byte addresses (lay the trace out first)"
        )
    outcome = MemoryHierarchy(machine).simulate(
        stream.addresses, stream.writes, engine=engine
    )
    return stats_from_hierarchy(outcome, machine)
