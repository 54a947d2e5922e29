"""Deterministic engine-equivalence and engine-selection tests.

The hypothesis suite (tests/properties/test_engine_props.py) fuzzes
small streams; these tests pin specific regressions: engine selection
plumbing, sparse line numbers, far reuses whose stack distance sits on
either side of the capacity, and a stream too large for any shortcut.
"""

import numpy as np
import pytest

from repro.lang import SimulationError
from repro.memsim import ENGINES, default_engine, fa_miss_counts
from repro.memsim.cache import CacheConfig, simulate_cache, simulate_cache_writeback


def _assert_engines_agree(config, addresses, writes=None):
    ref = simulate_cache_writeback(config, addresses, writes, engine="reference")
    fast = simulate_cache_writeback(config, addresses, writes, engine="fast")
    assert np.array_equal(ref.miss, fast.miss)
    assert ref.writebacks == fast.writebacks
    return ref


class TestEngineSelection:
    def test_default_engine_is_fast(self):
        assert default_engine() == "fast"

    def test_explicit_engine_rejects_unknown(self):
        cfg = CacheConfig("c", 64, 8, 0)
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_cache(cfg, np.array([0, 8]), engine="turbo")

    def test_engines_tuple(self):
        assert ENGINES == ("fast", "reference")


class TestFastPaths:
    def test_empty_stream(self):
        cfg = CacheConfig("c", 64, 8, 2)
        res = simulate_cache_writeback(
            cfg, np.empty(0, dtype=np.int64), None, engine="fast"
        )
        assert len(res.miss) == 0 and res.writebacks == 0

    def test_stream_beyond_int32_positions_is_refused(self):
        # positions are int32 inside the kernels; a zero-stride view has
        # the length without the memory
        from repro.memsim.fastsim import simulate_fast

        lines = np.broadcast_to(np.int32(0), (2**31,))
        for assoc in (0, 2):
            with pytest.raises(SimulationError, match=r"2\*\*31 - 1 accesses"):
                simulate_fast(CacheConfig("c", 64, 8, assoc), lines)

    def test_untracked_writes_stay_absent(self):
        # writes=None reaches the kernel as None: no write-backs, same mask
        cfg = CacheConfig("c", 64, 8, 2)
        addrs = np.arange(64, dtype=np.int64) * 8 % 200
        plain = simulate_cache_writeback(cfg, addrs, None, engine="fast")
        loads = simulate_cache_writeback(
            cfg, addrs, np.zeros(64, dtype=bool), engine="fast"
        )
        assert plain.writebacks == loads.writebacks == 0
        assert np.array_equal(plain.miss, loads.miss)

    def test_line_minus_one_is_a_line_not_an_empty_slot(self):
        # lines -1 and 3 share set 3 of 4; the scalar engine once used -1
        # as its empty-way sentinel and took the first access for a hit
        addrs = np.array([-8, -8, 24, -8])
        writes = np.array([True, False, False, False])
        for assoc in (1, 2):
            cfg = CacheConfig("c", 4 * assoc * 8, 8, assoc)
            ref = _assert_engines_agree(cfg, addrs, writes)
            assert ref.miss[0] and ref.writebacks == 1

    def test_sparse_addresses_densify(self):
        # line numbers scattered across 2**40: too wide for a narrow sort key
        rng = np.random.default_rng(11)
        bases = rng.integers(0, 2**40, size=8)
        addrs = (rng.choice(bases, size=4000) + rng.integers(0, 32, size=4000)) * 64
        writes = rng.random(4000) < 0.3
        for cap in (2, 16, 64):
            _assert_engines_agree(CacheConfig("fa", cap * 64, 64, 0), addrs, writes)

    def test_phase_structured_stream_all_geometries(self):
        # phase changes create long-gap reuses whose stack distance must be
        # resolved exactly (far heads on both sides of the capacity)
        rng = np.random.default_rng(5)
        phases = [
            rng.integers(lo, lo + width, size=3000)
            for lo, width in ((0, 40), (300, 25), (10, 200), (150, 60))
        ]
        addrs = np.concatenate(phases) * 32
        writes = rng.random(len(addrs)) < 0.25
        for cfg in (
            CacheConfig("fa", 16 * 32, 32, 0),
            CacheConfig("fa", 128 * 32, 32, 0),
            CacheConfig("dm", 16 * 32, 32, 1),
            CacheConfig("2w", 64 * 32, 32, 2),
            CacheConfig("4w", 64 * 32, 32, 4),
        ):
            _assert_engines_agree(cfg, addrs, writes)

    def test_large_fa_stream_matches_scalar(self):
        # the size the occupancy-table budget used to divert to exact
        # distances: >= 2**17 run heads over >= 4k pages, two sweeps of a
        # sliding 40-page working set so the second sweep's reuses are
        # far ones with thousands of pages in their windows
        rng = np.random.default_rng(3)
        n = 75_000
        sweep = np.arange(n) // 15 + rng.integers(0, 40, size=n)
        pages = np.concatenate([sweep, sweep[::-1]])
        writes = rng.random(len(pages)) < 0.2
        assert len(np.unique(pages)) >= 4096
        for cap in (16, 64, 6000):
            cfg = CacheConfig("tlb", cap * 4096, 4096, 0)
            _assert_engines_agree(cfg, pages * 4096, writes)
            work = simulate_cache_writeback(cfg, pages * 4096, None, engine="fast").work
            assert work["heads"] >= 2**17 and work["far"] > 0

    def test_all_loads_reports_zero_writebacks(self):
        cfg = CacheConfig("2w", 8 * 16, 16, 2)
        addrs = np.arange(100) % 40 * 16
        res = simulate_cache_writeback(cfg, addrs, None, engine="fast")
        assert res.writebacks == 0


class TestFaMissCounts:
    def test_matches_per_capacity_simulation(self):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 300, size=5000)
        capacities = (1, 4, 16, 64, 256, 1024)
        counts = fa_miss_counts(keys, capacities)
        assert set(counts) == set(capacities)
        for cap in capacities:
            cfg = CacheConfig("fa", cap, 1, 0)
            miss = simulate_cache(cfg, keys, engine="fast")
            assert counts[cap] == int(miss.sum()), cap

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 100, size=2000)
        counts = fa_miss_counts(keys, (1, 2, 4, 8, 16))
        values = [counts[c] for c in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)
