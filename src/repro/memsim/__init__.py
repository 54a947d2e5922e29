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
from .geometry import (
    ELEM_BYTES,
    L1_LINE_BYTES,
    L2_LINE_BYTES,
    PAGE_BYTES,
    CacheGeometry,
)
from .hierarchy import (
    HierarchyResult,
    MemoryHierarchy,
    MemStats,
    simulate_stream,
    stats_from_hierarchy,
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
    "CacheResult",
    "DRAMConfig",
    "DRAMResult",
    "ELEM_BYTES",
    "ENGINES",
    "HierarchyResult",
    "L1_LINE_BYTES",
    "L2_LINE_BYTES",
    "MACHINES",
    "MSIResult",
    "MachineConfig",
    "MemStats",
    "MemoryHierarchy",
    "PAGE_BYTES",
    "TLBConfig",
    "TimingModel",
    "bandwidth_record",
    "bandwidth_row",
    "bandwidth_rows",
    "default_engine",
    "octane",
    "origin2000",
    "scaled_machine",
    "simulate_cache",
    "simulate_cache_writeback",
    "simulate_dram",
    "simulate_msi",
    "simulate_stream",
    "stats_from_hierarchy",
]
