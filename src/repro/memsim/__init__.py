"""Memory-hierarchy simulation substrate (replaces hardware counters)."""

from .cache import (
    ENGINES,
    CacheConfig,
    CacheResult,
    default_engine,
    simulate_cache,
    simulate_cache_writeback,
)
from .bandwidth import (
    BANDWIDTH_HEADERS,
    bandwidth_record,
    bandwidth_row,
    bandwidth_rows,
)
from .coherence import MSIResult, simulate_msi
from .dram import DRAMConfig, DRAMResult, simulate_dram
from .fastsim import fa_miss_counts
from .geometry import (
    ELEM_BYTES,
    L1_LINE_BYTES,
    L2_LINE_BYTES,
    PAGE_BYTES,
    CacheGeometry,
)
from .hierarchy import (
    MemStats,
    simulate_hierarchy,
    simulate_stream,
    stats_from_hierarchy,
)
from .levels import (
    CacheLevel,
    DRAMLevel,
    HierarchyResult,
    LevelResult,
    MemoryHierarchy,
    MemoryLevel,
    TLBLevel,
)
from .machine import (
    MACHINES,
    MachineConfig,
    TimingModel,
    TLBConfig,
    octane,
    origin2000,
    scaled_machine,
)

__all__ = [
    "BANDWIDTH_HEADERS",
    "CacheConfig",
    "CacheGeometry",
    "CacheLevel",
    "CacheResult",
    "DRAMConfig",
    "DRAMLevel",
    "DRAMResult",
    "ELEM_BYTES",
    "ENGINES",
    "HierarchyResult",
    "L1_LINE_BYTES",
    "L2_LINE_BYTES",
    "LevelResult",
    "MACHINES",
    "MSIResult",
    "MachineConfig",
    "MemStats",
    "MemoryHierarchy",
    "MemoryLevel",
    "PAGE_BYTES",
    "TLBConfig",
    "TLBLevel",
    "TimingModel",
    "bandwidth_record",
    "bandwidth_row",
    "bandwidth_rows",
    "default_engine",
    "fa_miss_counts",
    "octane",
    "origin2000",
    "scaled_machine",
    "simulate_cache",
    "simulate_cache_writeback",
    "simulate_dram",
    "simulate_hierarchy",
    "simulate_msi",
    "simulate_stream",
    "stats_from_hierarchy",
]
