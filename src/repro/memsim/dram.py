"""DRAM device model: row/bank/channel mapping, row-buffer hits, energy.

The levels above (L1/L2/TLB) model *whether* a line must come from
memory; this module models *what memory does about it*.  Every L2 fill
request is mapped page-wise onto the DRAM geometry —

* **channel**: consecutive row-buffer-sized blocks interleave across
  channels (block ``addr // row_bytes``, modulo ``channels``);
* **bank**: consecutive blocks on one channel interleave across its
  banks;
* **row**: what remains addresses the row within the bank —

and each (channel, bank) keeps an open-page row buffer: a fill that hits
the currently open row is a **row hit** (column access only); a fill to
a different row pays an activate+precharge (**row miss**).  The model is
deterministic and purely vectorized, so both simulation engines produce
identical DRAM statistics from their (bit-identical) miss masks.

Energy is accounted per event with DDR-era ballpark constants: an
activate+precharge per row miss, a column burst per line transferred
(fills and write-backs), and nothing for background power — the figure
of merit is *energy moved per byte*, the lens the paper's effective
bandwidth argument puts on memory traffic, not absolute watts.

Write-backs are counted as column-burst traffic (bytes and energy) but
not mapped to rows: the cache simulators report how many dirty lines
were evicted, not which — the approximation is documented in DESIGN §9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cache import _unit_ids
from .fastsim import _sort_key


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry and per-event energy of the memory device."""

    channels: int = 2
    banks: int = 8  # per channel
    row_bytes: int = 2048  # row-buffer (DRAM page) size per bank
    activate_nj: float = 2.5  # row activate + precharge, per row miss
    read_nj: float = 1.0  # column burst per line read (fill)
    write_nj: float = 1.2  # column burst per line written (write-back)

    def __post_init__(self) -> None:
        if self.channels < 1 or self.banks < 1 or self.row_bytes < 1:
            raise ValueError("DRAM geometry values must be positive")


@dataclass(frozen=True)
class DRAMResult:
    """Outcome of replaying one fill stream against the device."""

    fills: int  # line requests served (L2 misses)
    row_hits: int
    row_misses: int
    writebacks: int  # dirty lines drained (counted, not row-mapped)
    line_bytes: int
    #: bytes served per (channel, bank), shape (channels * banks,)
    per_bank_bytes: np.ndarray = field(repr=False, default=None)
    energy_nj: float = 0.0
    #: the block each bank's row buffer holds open at the end, one entry
    #: per bank that was ever opened (what a next chunk replays)
    open_rows: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.fills if self.fills else 0.0

    @property
    def banks_touched(self) -> int:
        if self.per_bank_bytes is None:
            return 0
        return int(np.count_nonzero(self.per_bank_bytes))

    @property
    def bytes_read(self) -> int:
        return self.fills * self.line_bytes

    @property
    def bytes_written(self) -> int:
        return self.writebacks * self.line_bytes


def dram_energy(
    config: DRAMConfig, fills: int, row_misses: int, writebacks: int
) -> float:
    """Nanojoules of an activate+precharge per row miss and a column
    burst per line filled or written back."""
    return (
        config.activate_nj * row_misses
        + config.read_nj * fills
        + config.write_nj * writebacks
    )


def simulate_dram(
    config: DRAMConfig,
    fill_addresses: np.ndarray,
    line_bytes: int,
    writebacks: int = 0,
    previous: Optional[DRAMResult] = None,
) -> DRAMResult:
    """Replay the L2 fill stream against the open-page row buffers.

    ``fill_addresses`` are the byte addresses of the accesses that
    missed in the L2 (one fill per miss); ``writebacks`` is the dirty
    line count the L2 drained.  One stable sort of the narrow bank id
    groups the stream per (channel, bank) while preserving program
    order within each bank, which is exactly the order its row buffer
    sees.

    ``previous`` continues a fill stream: its open rows are replayed as
    one fill per bank ahead of ``fill_addresses`` (first in their bank,
    and never a hit: their neighbour in bank order is another bank), and
    the result counts everything so far — ``writebacks`` included, which
    is the L2's running total.
    """
    block = _unit_ids(fill_addresses, config.row_bytes)
    fills = len(block)
    prefix = 0
    if previous is not None and len(previous.open_rows):
        prefix = len(previous.open_rows)
        block = np.concatenate([previous.open_rows, block])
    nbanks = config.channels * config.banks
    channel, per_channel = block % config.channels, block // config.channels
    bank_id = channel * config.banks + per_channel % config.banks
    # program order within each bank == sorted order under a stable sort;
    # (bank, row) is a bijection of the block number, so a row hit is an
    # equal neighbouring block in bank order
    in_bank = block.take(np.argsort(_sort_key(bank_id, nbanks - 1), kind="stable"))
    row_hits = int(np.count_nonzero(in_bank[1:] == in_bank[:-1]))
    opened = np.bincount(bank_id, minlength=nbanks)
    open_rows = in_bank[np.cumsum(opened)[opened > 0] - 1]
    opened[bank_id[:prefix]] -= 1  # one replayed fill per bank, served nothing
    served = opened * line_bytes
    if previous is not None:
        fills += previous.fills
        row_hits += previous.row_hits
        served += previous.per_bank_bytes
    row_misses = fills - row_hits
    return DRAMResult(
        fills=fills,
        row_hits=row_hits,
        row_misses=row_misses,
        writebacks=writebacks,
        line_bytes=line_bytes,
        per_bank_bytes=served,
        energy_nj=dram_energy(config, fills, row_misses, writebacks),
        open_rows=open_rows,
    )
