"""Unit coverage for the DRAM device model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import DRAMConfig, DRAMResult, simulate_dram

LINE = 128


def small():
    return DRAMConfig(channels=2, banks=2, row_bytes=256)


class TestMapping:
    def test_blocks_interleave_across_channels_then_banks(self):
        cfg = small()
        # blocks 0..3 -> (ch0,b0) (ch1,b0) (ch0,b1) (ch1,b1); block 4 wraps
        # to (ch0,b0) again but in a NEW row -> no row hit
        addrs = np.arange(5, dtype=np.int64) * cfg.row_bytes
        res = simulate_dram(cfg, addrs, LINE)
        assert res.fills == 5
        assert res.row_hits == 0
        assert res.banks_touched == 4
        assert res.per_bank_bytes.tolist() == [2 * LINE, LINE, LINE, LINE]

    def test_same_row_consecutive_fills_hit(self):
        cfg = small()
        # four fills into the same 256-byte row of one bank
        addrs = np.asarray([0, 32, 64, 128], dtype=np.int64)
        res = simulate_dram(cfg, addrs, LINE)
        assert res.row_misses == 1  # the opening activate
        assert res.row_hits == 3
        assert res.row_hit_rate == pytest.approx(0.75)
        assert res.banks_touched == 1

    def test_interleaved_banks_keep_independent_row_buffers(self):
        cfg = small()
        row = cfg.row_bytes
        # alternate bank A row 0 / bank B row 0: each bank sees a
        # same-row sequence, so only the two opening activates miss
        addrs = np.asarray([0, row, 32, row + 32, 64, row + 64], dtype=np.int64)
        res = simulate_dram(cfg, addrs, LINE)
        assert res.row_misses == 2
        assert res.row_hits == 4

    def test_row_conflict_thrashing(self):
        cfg = small()
        # two rows mapping to the SAME bank: row 0 and row 1 of (ch0,b0)
        # are blocks 0 and 4 -> addresses 0 and 4*row_bytes
        a, b = 0, 4 * cfg.row_bytes
        addrs = np.asarray([a, b, a, b, a, b], dtype=np.int64)
        res = simulate_dram(cfg, addrs, LINE)
        assert res.row_hits == 0
        assert res.row_misses == 6


class TestAccounting:
    def test_energy_per_event(self):
        cfg = small()
        addrs = np.asarray([0, 32, 4 * cfg.row_bytes], dtype=np.int64)
        res = simulate_dram(cfg, addrs, LINE, writebacks=5)
        # 2 row misses (two activates), 3 fills, 5 writebacks
        assert res.row_misses == 2
        assert res.energy_nj == pytest.approx(
            2 * cfg.activate_nj + 3 * cfg.read_nj + 5 * cfg.write_nj
        )
        assert res.bytes_read == 3 * LINE
        assert res.bytes_written == 5 * LINE

    def test_empty_stream_still_charges_writeback_energy(self):
        cfg = small()
        res = simulate_dram(cfg, np.empty(0, dtype=np.int64), LINE, writebacks=7)
        assert res.fills == 0
        assert res.row_hit_rate == 0.0
        assert res.banks_touched == 0
        assert res.energy_nj == pytest.approx(7 * cfg.write_nj)
        assert res.bytes_written == 7 * LINE

    def test_per_bank_bytes_sum_to_fill_traffic(self):
        cfg = DRAMConfig()
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 24, size=2000).astype(np.int64)
        res = simulate_dram(cfg, addrs, LINE)
        assert int(res.per_bank_bytes.sum()) == res.bytes_read
        assert res.per_bank_bytes.shape == (cfg.channels * cfg.banks,)

    def test_program_order_preserved_within_a_bank(self):
        cfg = small()
        # bank A sees rows [0, 1, 0]: even though sorting groups by bank,
        # the stable sort must preserve this order -> 3 misses, not 2
        a_row0, a_row1 = 0, 4 * cfg.row_bytes
        other = cfg.row_bytes  # different bank, interleaved as noise
        addrs = np.asarray([a_row0, other, a_row1, other + 32, a_row0], np.int64)
        res = simulate_dram(cfg, addrs, LINE)
        # bank A: miss, miss, miss; bank B: miss, hit
        assert res.row_misses == 4
        assert res.row_hits == 1


def open_row_oracle(cfg, addresses, line_bytes, writebacks):
    """One open row per bank, one fill at a time."""
    open_row: dict[int, int] = {}
    hits = 0
    per_bank = [0] * (cfg.channels * cfg.banks)
    for addr in addresses:
        block = addr // cfg.row_bytes
        on_channel = block // cfg.channels
        bank = (block % cfg.channels) * cfg.banks + on_channel % cfg.banks
        row = on_channel // cfg.banks
        hits += open_row.get(bank) == row
        open_row[bank] = row
        per_bank[bank] += line_bytes
    misses = len(addresses) - hits
    energy = (
        cfg.activate_nj * misses
        + cfg.read_nj * len(addresses)
        + cfg.write_nj * writebacks
    )
    return hits, misses, per_bank, energy


@st.composite
def fill_streams(draw):
    """A geometry (``channels * banks`` and ``row_bytes`` need not be
    powers of two) and fills clustered on a few rows, so that row hits,
    conflicts and idle banks all occur; addresses may be negative or
    beyond 2**31 row blocks."""
    cfg = DRAMConfig(
        channels=draw(st.integers(1, 3)),
        banks=draw(st.sampled_from([1, 2, 3, 5, 8])),
        row_bytes=draw(st.sampled_from([64, 96, 256, 2048])),
    )
    origin = draw(st.sampled_from([0, -5, 2**31 - 3, 2**40])) * cfg.row_bytes
    span = draw(st.integers(1, 40)) * cfg.row_bytes
    offsets = draw(st.lists(st.integers(0, span), min_size=0, max_size=80))
    return cfg, [origin + off for off in offsets], draw(st.integers(0, 9))


@given(fill_streams())
@settings(max_examples=200, deadline=None)
def test_matches_scalar_open_row_oracle(case):
    cfg, addresses, writebacks = case
    hits, misses, per_bank, energy = open_row_oracle(cfg, addresses, LINE, writebacks)
    res = simulate_dram(cfg, np.asarray(addresses, dtype=np.int64), LINE, writebacks)
    assert (res.row_hits, res.row_misses) == (hits, misses)
    assert res.per_bank_bytes.tolist() == per_bank
    assert res.energy_nj == pytest.approx(energy)


@given(fill_streams(), st.lists(st.integers(0, 80), max_size=4))
@settings(max_examples=200, deadline=None)
def test_chunk_boundaries_are_invisible(case, cuts):
    """The fill stream cut anywhere, each piece continuing from the last
    one's open rows (``previous=``), counts exactly what one call does —
    banks touched are a union, energy is charged on the running totals."""
    cfg, addresses, writebacks = case
    addresses = np.asarray(addresses, dtype=np.int64)
    whole = simulate_dram(cfg, addresses, LINE, writebacks)
    bounds = [0, *sorted(min(c, len(addresses)) for c in cuts), len(addresses)]
    res = None
    for lo, hi in zip(bounds, bounds[1:]):
        res = simulate_dram(cfg, addresses[lo:hi], LINE, writebacks, previous=res)
    assert (res.fills, res.row_hits, res.row_misses) == (
        whole.fills, whole.row_hits, whole.row_misses,
    )
    assert res.banks_touched == whole.banks_touched
    assert res.per_bank_bytes.tolist() == whole.per_bank_bytes.tolist()
    assert res.energy_nj == whole.energy_nj
    assert res.open_rows.tolist() == whole.open_rows.tolist()


class TestConfig:
    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            DRAMConfig(channels=0)
        with pytest.raises(ValueError):
            DRAMConfig(row_bytes=0)

    def test_result_is_engine_free_pure_function(self):
        cfg = DRAMConfig()
        addrs = np.arange(100, dtype=np.int64) * 64
        a = simulate_dram(cfg, addrs, LINE, writebacks=3)
        b = simulate_dram(cfg, addrs, LINE, writebacks=3)
        assert isinstance(a, DRAMResult)
        assert a.row_hits == b.row_hits and a.energy_nj == b.energy_nj
        assert np.array_equal(a.per_bank_bytes, b.per_bank_bytes)
