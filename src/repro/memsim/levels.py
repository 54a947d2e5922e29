"""Composable memory hierarchies: pluggable levels over one stream.

``simulate_hierarchy`` used to be a fixed L1 → L2 → TLB pipeline; this
module breaks it into :class:`MemoryLevel` objects a
:class:`MemoryHierarchy` chains.  Each level declares which stream it
observes via ``source``:

* ``None`` — the full access stream (the L1, and the TLB, which watches
  every access at page granularity);
* a level name — the *misses* of that level (the L2 observes ``"l1"``,
  the DRAM observes ``"l2"``).

The stream arrives in chunks (:meth:`MemoryHierarchy.simulate_chunks`;
:meth:`MemoryHierarchy.simulate` slices whole arrays into them), so no
level ever holds more than one chunk.  The plug-in contract (DESIGN
§9): a level exposes ``name``, ``source``, and ``simulate(addresses,
writes, engine, upstream, previous)`` returning a :class:`LevelResult`.
``previous`` is the level's own result over every earlier chunk; the
level starts from its ``state`` — replayed as a synthetic prefix whose
flags and counts are dropped — and returns the result over everything
so far, counted as if the stream ended with this chunk, with the
chunk's miss mask and its new state.  The hierarchy walks levels in
order, wraps each in one :mod:`repro.obs` span named after the level
(``chunks=`` counts its pieces), filters the chunk by the source's miss
mask, and hands the source's result in as ``upstream`` (how the DRAM
level learns the L2's write-back count).  Levels must not mutate the
stream; results are deterministic per engine, and the two cache engines
stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, MutableMapping, Optional, Protocol, runtime_checkable

import numpy as np

from ..interp import trace as _trace
from ..obs import ChunkedSpan
from .cache import CacheConfig, default_engine, simulate_cache_writeback
from .dram import DRAMConfig, DRAMResult, simulate_dram
from .machine import MachineConfig, TLBConfig


@dataclass(frozen=True)
class LevelResult:
    """What one level did with the stream it observed so far."""

    name: str
    accesses: int
    misses: int
    writebacks: int = 0
    line_bytes: int = 0
    #: miss mask over the last chunk the level observed; None for
    #: terminal levels that serve everything (DRAM) and in a finished
    #: :class:`HierarchyResult`
    miss: Optional[np.ndarray] = field(repr=False, default=None)
    #: what the level replays before its next chunk (None when finished)
    state: object = field(repr=False, default=None)
    #: device-specific extras (e.g. the DRAM row-buffer outcome)
    dram: Optional[DRAMResult] = None
    #: the engine's work counters, summed over chunks and copied onto
    #: the level's span (:attr:`~repro.memsim.cache.CacheResult.work`)
    work: dict = field(default_factory=dict)


@runtime_checkable
class MemoryLevel(Protocol):
    """The hierarchy plug-in contract."""

    name: str
    source: Optional[str]

    def simulate(
        self,
        addresses: np.ndarray,
        writes: np.ndarray,
        engine: Optional[str],
        upstream: Optional[LevelResult],
        previous: Optional[LevelResult],
    ) -> LevelResult:
        ...


def _cache_result(
    name: str,
    config: CacheConfig,
    addresses: np.ndarray,
    writes: Optional[np.ndarray],
    engine: Optional[str],
    previous: Optional[LevelResult],
) -> LevelResult:
    """A cache's chunk, continued from ``previous``: its write-backs are
    the evictions so far plus the dirty residue now (the flush only the
    last chunk's counts keep)."""
    before = previous or LevelResult(name, 0, 0)
    state = before.state
    result = simulate_cache_writeback(config, addresses, writes, engine, state)
    evicted = before.writebacks - (0 if state is None else state.dirty_lines)
    return LevelResult(
        name,
        before.accesses + len(addresses),
        before.misses + result.misses,
        evicted + result.writebacks,
        config.line_bytes,
        result.miss,
        result.state,
        work={k: before.work.get(k, 0) + v for k, v in result.work.items()},
    )


@dataclass(frozen=True)
class CacheLevel:
    """A set-associative LRU cache level (L1, L2, ...)."""

    name: str
    config: CacheConfig
    source: Optional[str] = None
    #: whether store accesses dirty lines here (write-back accounting);
    #: the L1 is modeled write-through like the original fixed stack
    track_writes: bool = True

    def simulate(
        self,
        addresses: np.ndarray,
        writes: np.ndarray,
        engine: Optional[str],
        upstream: Optional[LevelResult] = None,
        previous: Optional[LevelResult] = None,
    ) -> LevelResult:
        return _cache_result(
            self.name,
            self.config,
            addresses,
            writes if self.track_writes else None,
            engine,
            previous,
        )


@dataclass(frozen=True)
class TLBLevel:
    """The TLB as a fully-associative cache of page translations."""

    config: TLBConfig
    name: str = "tlb"
    source: Optional[str] = None

    def simulate(
        self,
        addresses: np.ndarray,
        writes: np.ndarray,
        engine: Optional[str],
        upstream: Optional[LevelResult] = None,
        previous: Optional[LevelResult] = None,
    ) -> LevelResult:
        return _cache_result(
            self.name, self.config.as_cache(), addresses, None, engine, previous
        )


@dataclass(frozen=True)
class DRAMLevel:
    """The memory device behind the last cache level."""

    config: DRAMConfig
    line_bytes: int
    name: str = "dram"
    source: Optional[str] = "l2"

    def simulate(
        self,
        addresses: np.ndarray,
        writes: np.ndarray,
        engine: Optional[str],
        upstream: Optional[LevelResult] = None,
        previous: Optional[LevelResult] = None,
    ) -> LevelResult:
        writebacks = upstream.writebacks if upstream is not None else 0
        outcome = simulate_dram(
            self.config,
            addresses,
            self.line_bytes,
            writebacks=writebacks,
            previous=None if previous is None else previous.dram,
        )
        return LevelResult(
            name=self.name,
            accesses=outcome.fills,
            misses=outcome.row_misses,  # row-buffer misses: the activates
            writebacks=writebacks,
            line_bytes=self.line_bytes,
            dram=outcome,
        )


@dataclass
class HierarchyResult:
    """Ordered per-level outcomes of one hierarchy simulation."""

    machine: str
    accesses: int
    levels: dict[str, LevelResult]

    def __getitem__(self, name: str) -> LevelResult:
        return self.levels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.levels

    @property
    def dram(self) -> Optional[DRAMResult]:
        for level in self.levels.values():
            if level.dram is not None:
                return level.dram
        return None


class MemoryHierarchy:
    """An ordered chain of :class:`MemoryLevel` plug-ins."""

    def __init__(self, name: str, levels: tuple) -> None:
        self.name = name
        self.levels: tuple = tuple(levels)
        seen: set[str] = set()
        for level in self.levels:
            if level.name in seen:
                raise ValueError(f"duplicate level name {level.name!r}")
            if level.source is not None and level.source not in seen:
                raise ValueError(
                    f"level {level.name!r} observes {level.source!r}, "
                    f"which is not defined before it"
                )
            seen.add(level.name)

    @classmethod
    def standard(cls, machine: MachineConfig) -> "MemoryHierarchy":
        """The paper's stack: L1, L2 (sees L1 misses), TLB, DRAM."""
        return cls(
            machine.name,
            (
                CacheLevel("l1", machine.l1, source=None, track_writes=False),
                CacheLevel("l2", machine.l2, source="l1"),
                TLBLevel(machine.tlb),
                DRAMLevel(machine.dram, machine.l2.line_bytes, source="l2"),
            ),
        )

    def simulate(
        self,
        addresses: np.ndarray,
        writes: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
        timings: Optional[MutableMapping[str, float]] = None,
    ) -> HierarchyResult:
        """Run a whole stream through every level, in declaration order.

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

        Each level runs under one obs span named after it, whatever the
        number of chunks; its seconds accumulate into ``timings``.
        """
        resolved = engine or default_engine()
        spans = {
            level.name: ChunkedSpan(level.name, engine=resolved)
            for level in self.levels
        }
        results: dict[str, LevelResult] = {}
        accesses = 0
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        for addresses, writes in _at_least_one(chunks, empty):
            accesses += len(addresses)
            # each level's observed columns, so source filters compose: a
            # level's miss mask indexes the chunk *it* observed, not the
            # full chunk (the DRAM sees addresses[l1.miss][l2.miss])
            observed_by: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for level in self.levels:
                observed, observed_writes = addresses, writes
                upstream = None
                if level.source is not None:
                    upstream = results[level.source]
                    observed, observed_writes = observed_by[level.source]
                    if upstream.miss is not None:
                        # one index column, two gathers: cheaper than two
                        # boolean selections at cache miss densities
                        missed = np.flatnonzero(upstream.miss)
                        observed = observed.take(missed)
                        observed_writes = observed_writes.take(missed)
                with spans[level.name].chunk() as sp:
                    result = level.simulate(
                        observed, observed_writes, engine, upstream,
                        results.get(level.name),
                    )
                    sp.attrs.update(result.work, misses=result.misses)
                observed_by[level.name] = (observed, observed_writes)
                results[level.name] = result
        if timings is not None:
            for name, sp in spans.items():
                timings[name] = timings.get(name, 0.0) + sp.duration_s
        return HierarchyResult(
            machine=self.name,
            accesses=accesses,
            levels={
                name: replace(r, miss=None, state=None) for name, r in results.items()
            },
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
