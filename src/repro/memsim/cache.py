"""Set-associative LRU cache simulation with write-back accounting.

Functional-simulation substrate replacing the paper's hardware counters:
a cache is simulated exactly (true LRU within each set), returning a
per-access miss mask so levels can be chained (L2 sees only L1 misses),
plus the number of dirty-line write-backs — the outbound half of the
bandwidth the paper's effective-bandwidth argument is about.

Two engines share this entry point.  The **reference** engine is the
original scalar implementation below: plain Python over pre-extracted
lists, the ground truth every optimization is checked against.  The
**fast** engine (:mod:`repro.memsim.fastsim`) re-derives the identical
miss masks and write-back counts with vectorized numpy set-partitioned
processing, run-length compression, and a reuse-distance-style
fully-associative path — several times faster on multi-million access
traces.  Select per call via ``engine=``; results are bit-identical (a
property-test suite pins the equivalence).

A stream may arrive in chunks.  Each call then starts from the state
the previous one ended in (:class:`LRUState`), replayed as a synthetic
prefix of the chunk whose misses are dropped, and returns its own end
state — so both engines run their unmodified kernels on every chunk.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..lang import SimulationError

#: Engine names accepted by ``simulate_cache*``.
ENGINES = ("fast", "reference")


def default_engine() -> str:
    """Engine used when none is requested."""
    return "fast"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int  # 0 = fully associative

    def __post_init__(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise SimulationError(f"{self.name}: size not a multiple of line size")
        lines = self.size_bytes // self.line_bytes
        if self.assoc and lines % self.assoc:
            raise SimulationError(f"{self.name}: lines not a multiple of assoc")
        if self.assoc and self.assoc > lines:
            raise SimulationError(f"{self.name}: assoc exceeds line count")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def line_elems(self) -> int:
        """Array elements per line (the unit the static analyses count)."""
        from .geometry import ELEM_BYTES

        return max(1, self.line_bytes // ELEM_BYTES)

    @property
    def num_sets(self) -> int:
        return 1 if self.assoc == 0 else self.num_lines // self.assoc

    @property
    def ways(self) -> int:
        return self.num_lines if self.assoc == 0 else self.assoc

    def scaled(self, factor: float) -> "CacheConfig":
        """Shrink/grow capacity, preserving line size and associativity.

        Clamped so any positive factor yields a valid geometry: at least
        one full set (``num_lines >= assoc``, rounded to a multiple of
        the associativity) and at least one line when fully associative.
        """
        lines = max(1 if self.assoc == 0 else self.assoc,
                    int(self.num_lines * factor))
        if self.assoc:
            lines = max(self.assoc, (lines // self.assoc) * self.assoc)
        return CacheConfig(self.name, lines * self.line_bytes, self.line_bytes, self.assoc)


@dataclass(frozen=True)
class LRUState:
    """What an LRU cache holds: its resident lines and their dirty bits.

    ``lines`` are grouped by set (ascending set index) and ordered LRU →
    MRU within a set — one set in global recency order when the cache is
    fully associative.  Replaying ``lines`` with ``dirty`` as the write
    column into an empty cache of the same geometry rebuilds exactly this
    state: no set receives more lines than it has ways, so nothing is
    evicted on the way.
    """

    lines: np.ndarray
    dirty: np.ndarray

    @property
    def dirty_lines(self) -> int:
        return int(np.count_nonzero(self.dirty))


@dataclass(frozen=True)
class CacheResult:
    """Outcome of simulating one cache level."""

    miss: np.ndarray  # per-access miss mask
    writebacks: int  # dirty lines evicted (plus dirty residue at the end)
    #: what the engine had to do, for the level's span: ``heads`` (the
    #: candidates to miss: in-set run heads of a set-associative level,
    #: global run heads of a fully-associative one such as the TLB) and,
    #: fully associative, ``far`` (heads the gap filter could not
    #: settle); the scalar engine visits every access and reports nothing
    work: dict = field(default_factory=dict)
    #: the cache at the end of the stream; its dirty lines are the
    #: residue ``writebacks`` counts as flushed
    state: Optional[LRUState] = field(repr=False, default=None)

    @property
    def misses(self) -> int:
        return int(self.miss.sum())


def _unit_ids(addresses: np.ndarray, unit_bytes: int) -> np.ndarray:
    """Line / page / DRAM-block id of every byte address, narrowed once
    for every kernel downstream: a shift when the unit is a power of two
    (``>>`` floors negatives like ``//``), ``int32`` when every id is in
    ``[0, 2**31)``, ``int64`` otherwise."""
    addr = np.asarray(addresses, dtype=np.int64)
    if len(addr) == 0:
        return addr
    narrow = addr.min() >= 0 and int(addr.max()) // unit_bytes < 2**31
    ids = np.empty(len(addr), dtype=np.int32 if narrow else np.int64)
    shift = unit_bytes.bit_length() - 1
    if unit_bytes == 1 << shift:
        np.right_shift(addr, shift, out=ids, casting="unsafe")
    else:
        np.floor_divide(addr, unit_bytes, out=ids, casting="unsafe")
    return ids


def simulate_cache(
    config: CacheConfig, addresses: np.ndarray, engine: Optional[str] = None
) -> np.ndarray:
    """Simulate one cache level; returns the per-access miss mask."""
    return simulate_cache_writeback(config, addresses, None, engine=engine).miss


def simulate_cache_writeback(
    config: CacheConfig,
    addresses: np.ndarray,
    writes: Optional[np.ndarray],
    engine: Optional[str] = None,
    state: Optional[LRUState] = None,
) -> CacheResult:
    """Simulate with write-back accounting.

    ``writes`` marks store accesses (None = all loads).  A dirty line
    contributes one write-back when evicted; dirty lines still resident at
    the end are flushed and counted too (the data must eventually reach
    memory).  ``engine`` selects the implementation ("fast" or
    "reference"); both return bit-identical results, end state included.

    ``state`` continues a stream: the cache starts as the previous chunk
    left it.  Its lines are replayed ahead of ``addresses`` and the
    prefix's misses dropped, so ``miss`` covers ``addresses`` only and
    ``writebacks`` counts this chunk's evictions plus the residue of the
    returned state.
    """
    engine = engine or default_engine()
    if engine not in ENGINES:
        raise SimulationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    wr = None if writes is None else np.asarray(writes, dtype=bool)
    if engine == "fast":
        from .fastsim import simulate_fast

        lines = _unit_ids(addresses, config.line_bytes)
    else:
        # the oracle keeps the plain spelling: wide ids, a real write column
        lines = np.asarray(addresses, dtype=np.int64) // config.line_bytes
        if wr is None:
            wr = np.zeros(len(lines), dtype=bool)
    prefix = 0 if state is None else len(state.lines)
    if prefix:
        lines = np.concatenate([state.lines, lines])
        if wr is not None or state.dirty.any():
            loads = np.zeros(len(lines) - prefix, dtype=bool)
            wr = np.concatenate([state.dirty, loads if wr is None else wr])
    if engine == "fast":
        result = simulate_fast(config, lines, wr)
    else:
        result = _reference(config, lines, wr)
    if prefix:
        result = replace(result, miss=result.miss[prefix:])
    return result


def _reference(config: CacheConfig, lines: np.ndarray, wr: np.ndarray) -> CacheResult:
    from ..obs import metrics

    metrics.inc("engine.reference.calls")
    if config.assoc == 0 or config.num_sets == 1:
        return _fully_associative(lines, wr, config.ways)
    if config.assoc == 1:
        return _direct_mapped(lines, wr, config.num_sets)
    if config.assoc == 2:
        return _two_way(lines, wr, config.num_sets)
    return _n_way(lines, wr, config.num_sets, config.assoc)


def _state(resident: list[tuple[int, bool]]) -> LRUState:
    """An :class:`LRUState` from the scalar engine's ``(line, dirty)``
    pairs, already in replay order."""
    lines = np.fromiter((line for line, _ in resident), np.int64, len(resident))
    dirty = np.fromiter((d for _, d in resident), bool, len(resident))
    return LRUState(lines, dirty)


def _fully_associative(
    lines: np.ndarray, writes: np.ndarray, capacity: int
) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    lru: OrderedDict[int, bool] = OrderedDict()  # line -> dirty
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        if line in lru:
            dirty = lru.pop(line)
            lru[line] = dirty or w
        else:
            miss[t] = True
            if len(lru) >= capacity:
                _, victim_dirty = lru.popitem(last=False)
                writebacks += victim_dirty
            lru[line] = w
    writebacks += sum(lru.values())
    return CacheResult(miss, writebacks, state=_state(list(lru.items())))


def _direct_mapped(lines: np.ndarray, writes: np.ndarray, num_sets: int) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    slots = [None] * num_sets  # line ids may be negative
    dirty = [False] * num_sets
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = line % num_sets
        if slots[s] != line:
            miss[t] = True
            writebacks += dirty[s] and slots[s] is not None
            slots[s] = line
            dirty[s] = w
        else:
            dirty[s] = dirty[s] or w
    resident = [(s, d) for s, d in zip(slots, dirty) if s is not None]
    writebacks += sum(d for _, d in resident)
    return CacheResult(miss, writebacks, state=_state(resident))


def _two_way(lines: np.ndarray, writes: np.ndarray, num_sets: int) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    mru = [None] * num_sets  # line ids may be negative
    lru = [None] * num_sets
    mru_d = [False] * num_sets
    lru_d = [False] * num_sets
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = line % num_sets
        a = mru[s]
        if a == line:
            mru_d[s] = mru_d[s] or w
            continue
        if lru[s] == line:
            # swap to MRU
            mru[s], lru[s] = line, a
            mru_d[s], lru_d[s] = lru_d[s] or w, mru_d[s]
            continue
        miss[t] = True
        writebacks += lru_d[s] and lru[s] is not None
        lru[s], lru_d[s] = a, mru_d[s]
        mru[s], mru_d[s] = line, w
    resident = [
        pair
        for s in range(num_sets)
        for pair in ((lru[s], lru_d[s]), (mru[s], mru_d[s]))
        if pair[0] is not None
    ]
    writebacks += sum(d for _, d in resident)
    return CacheResult(miss, writebacks, state=_state(resident))


def _n_way(
    lines: np.ndarray, writes: np.ndarray, num_sets: int, assoc: int
) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    sets: list[OrderedDict[int, bool]] = [OrderedDict() for _ in range(num_sets)]
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = line % num_sets
        ways = sets[s]
        if line in ways:
            dirty = ways.pop(line)
            ways[line] = dirty or w
        else:
            miss[t] = True
            if len(ways) >= assoc:
                _, victim_dirty = ways.popitem(last=False)
                writebacks += victim_dirty
            ways[line] = w
    resident = [pair for ways in sets for pair in ways.items()]
    writebacks += sum(d for _, d in resident)
    return CacheResult(miss, writebacks, state=_state(resident))
