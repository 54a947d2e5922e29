"""The single source of cache-level geometry constants.

Line sizes, page size, and the element width used to convert between
byte capacities and element capacities were historically re-spelled in
three places — the cache model, the machine models, and the static
analyzer's capacity math (``l1_bytes // 8`` in the CLI and tuner).  They
live here once now; every consumer derives from :class:`CacheGeometry`
or the module constants, so the bytes-moved accounting (misses × line
size per level) agrees across the simulator, the static predictor, and
the bandwidth reports.

The values are the paper's machines (§4.2): both the Octane and the
Origin2000 use 32 B L1 lines, 128 B L2 lines, 16 KB pages, and 8-byte
(double-precision) array elements.  Scaled machines keep line sizes, so
these constants stay correct for every per-application hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

#: bytes per array element (double precision, the paper's data type)
ELEM_BYTES = 8
#: L1 cache line size in bytes (Octane and Origin2000 alike)
L1_LINE_BYTES = 32
#: L2 cache line size in bytes
L2_LINE_BYTES = 128
#: virtual-memory page size (the TLB's translation granularity)
PAGE_BYTES = 16 * 1024


def elems(capacity_bytes: int, elem_bytes: int = ELEM_BYTES) -> int:
    """A byte capacity as a whole number of array elements."""
    return int(capacity_bytes) // elem_bytes


@dataclass(frozen=True)
class CacheGeometry:
    """Level capacities plus the shared line/element constants.

    The bridge between byte-denominated machine descriptions and the
    element-denominated static analyses: ``l1_elems``/``l2_elems`` feed
    :meth:`repro.static.profile.StaticProfile.miss_count`, and the line
    sizes convert predicted misses into predicted bytes moved.
    """

    l1_bytes: int
    l2_bytes: int
    l1_line_bytes: int = L1_LINE_BYTES
    l2_line_bytes: int = L2_LINE_BYTES
    elem_bytes: int = ELEM_BYTES

    @property
    def l1_elems(self) -> int:
        return elems(self.l1_bytes, self.elem_bytes)

    @property
    def l2_elems(self) -> int:
        return elems(self.l2_bytes, self.elem_bytes)

    @classmethod
    def from_spec(cls, spec) -> "CacheGeometry":
        """Geometry of anything with ``l1_bytes``/``l2_bytes`` attributes
        (e.g. :class:`repro.programs.registry.MachineSpec`); line sizes
        are the shared constants, which every scaled machine preserves."""
        return cls(l1_bytes=spec.l1_bytes, l2_bytes=spec.l2_bytes)
