"""Composable memory hierarchies: pluggable levels over one stream.

``simulate_hierarchy`` used to be a fixed L1 → L2 → TLB pipeline; this
module breaks it into :class:`MemoryLevel` objects a
:class:`MemoryHierarchy` chains.  Each level declares which stream it
observes via ``source``:

* ``None`` — the full access stream (the L1, and the TLB, which watches
  every access at page granularity);
* a level name — the *misses* of that level (the L2 observes ``"l1"``,
  the DRAM observes ``"l2"``).

The plug-in contract (DESIGN §9): a level exposes ``name``, ``source``,
and ``simulate(addresses, writes, engine, upstream)`` returning a
:class:`LevelResult`.  The hierarchy walks levels in order, wraps each
in an :mod:`repro.obs` span named after the level, filters the stream
by the source's miss mask, and hands the source's own result in as
``upstream`` (how the DRAM level learns the L2's write-back count).
Levels must not mutate the stream; results are deterministic per
engine, and the two cache engines stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import MutableMapping, Optional, Protocol, runtime_checkable

import numpy as np

from ..obs import span
from .cache import CacheConfig, default_engine, simulate_cache_writeback
from .dram import DRAMConfig, DRAMResult, simulate_dram
from .machine import MachineConfig, TLBConfig


@dataclass(frozen=True)
class LevelResult:
    """What one level did with the stream it observed."""

    name: str
    accesses: int
    misses: int
    writebacks: int = 0
    line_bytes: int = 0
    #: per-access miss mask over the observed (already filtered) stream;
    #: None for terminal levels that serve everything (DRAM)
    miss: Optional[np.ndarray] = field(repr=False, default=None)
    #: device-specific extras (e.g. the DRAM row-buffer outcome)
    dram: Optional[DRAMResult] = None
    #: MSI coherence extras (an :class:`~repro.memsim.coherence.MSIResult`
    #: when the level is a :class:`~repro.memsim.coherence.CoherenceLevel`)
    msi: Optional[object] = None
    #: the engine's work counters, copied onto the level's span
    #: (:attr:`~repro.memsim.cache.CacheResult.work`)
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
    ) -> LevelResult:
        ...


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
    ) -> LevelResult:
        result = simulate_cache_writeback(
            self.config,
            addresses,
            writes if self.track_writes else None,
            engine=engine,
        )
        return LevelResult(
            name=self.name,
            accesses=len(addresses),
            misses=result.misses,
            writebacks=result.writebacks if self.track_writes else 0,
            line_bytes=self.config.line_bytes,
            miss=result.miss,
            work=result.work,
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
    ) -> LevelResult:
        result = simulate_cache_writeback(
            self.config.as_cache(), addresses, None, engine=engine
        )
        return LevelResult(
            name=self.name,
            accesses=len(addresses),
            misses=result.misses,
            line_bytes=self.config.page_bytes,
            miss=result.miss,
            work=result.work,
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
    ) -> LevelResult:
        writebacks = upstream.writebacks if upstream is not None else 0
        outcome = simulate_dram(
            self.config, addresses, self.line_bytes, writebacks=writebacks
        )
        return LevelResult(
            name=self.name,
            accesses=len(addresses),
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
        """Run the stream through every level, in declaration order.

        ``addresses`` may be a raw int64 array or an
        :class:`~repro.stream.AddressStream` (its write column is used
        when ``writes`` is omitted).  Each level runs under an obs span
        named after it; per-level seconds accumulate into ``timings``.
        """
        if writes is None and hasattr(addresses, "writes"):
            writes = addresses.writes
        addresses = np.asarray(addresses, dtype=np.int64)
        writes = (
            np.zeros(len(addresses), dtype=bool)
            if writes is None
            else np.asarray(writes, dtype=bool)
        )
        resolved = engine or default_engine()
        results: dict[str, LevelResult] = {}
        # each level's observed columns, so source filters compose: a
        # level's miss mask indexes the stream *it* observed, not the
        # full stream (the DRAM sees addresses[l1.miss][l2.miss])
        observed_by: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for level in self.levels:
            if level.source is None:
                observed, observed_writes = addresses, writes
                upstream = None
            else:
                upstream = results[level.source]
                observed, observed_writes = observed_by[level.source]
                if upstream.miss is not None:
                    # one index column, two gathers: cheaper than two
                    # boolean selections at cache miss densities
                    missed = np.flatnonzero(upstream.miss)
                    observed = observed.take(missed)
                    observed_writes = observed_writes.take(missed)
            with span(level.name, engine=resolved) as sp:
                result = level.simulate(
                    observed, observed_writes, engine, upstream
                )
                sp.attrs.update(result.work, misses=result.misses)
            if timings is not None:
                timings[level.name] = timings.get(level.name, 0.0) + sp.duration_s
            observed_by[level.name] = (observed, observed_writes)
            results[level.name] = result
        return HierarchyResult(
            machine=self.name, accesses=len(addresses), levels=results
        )
