"""Property-based tests: reuse distance and cache simulation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import simulate_belady
from repro.locality import COLD, reuse_distances, reuse_distances_naive
from repro.memsim import CacheConfig, simulate_cache

traces = st.lists(st.integers(0, 30), min_size=0, max_size=300)

#: keys too far apart to share a composite sort word with their positions
#: (the kernel's stable-argsort path), a few neighbours around each
sparse_keys = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from([2**40, 2**45 + 7, 2**62, -(2**44), -(2**62), 3]),
    st.integers(0, 4),
)
key_streams = st.one_of(
    traces,
    st.lists(st.integers(-50, 50), max_size=300),
    st.lists(sparse_keys, max_size=300),
)


@given(key_streams)
@settings(max_examples=300, deadline=None)
def test_reuse_distance_equals_naive(keys):
    assert list(reuse_distances(keys)) == reuse_distances_naive(keys)


#: 2**k - 1, 2**k, 2**k + 1 around the pairwise block width (32), the
#: first partition levels above it, and up to a dozen levels
BOUNDARIES = [2**k + d for k in (4, 5, 6, 7, 10, 12) for d in (-1, 0, 1)]


@pytest.mark.parametrize("count", ["accesses", "reuses"])
@pytest.mark.parametrize("size", BOUNDARIES)
def test_reuse_distance_equals_naive_at_kernel_boundaries(size, count):
    """The kernel's shape depends on the number of non-cold accesses
    (partition levels, block padding) and of accesses (position bits):
    put each exactly on, just under and just over every power of two."""
    distinct = 13
    reuses = size if count == "reuses" else size - distinct
    rng = np.random.default_rng(size)
    keys = list(range(distinct)) + rng.integers(0, distinct, reuses).tolist()
    assert list(reuse_distances(keys)) == reuse_distances_naive(keys)


@pytest.mark.parametrize(
    "keys",
    [
        pytest.param([7] * 1025, id="all-equal"),
        pytest.param(list(range(-600, 600)), id="all-distinct"),
        pytest.param(list(range(97)) * 21, id="sawtooth"),  # no inversions
        pytest.param(
            (list(range(65)) + list(range(64, -1, -1))) * 16, id="zigzag"
        ),  # every turn-around inverts all previous positions
    ],
)
def test_reuse_distance_equals_naive_on_extreme_orders(keys):
    assert list(reuse_distances(keys)) == reuse_distances_naive(keys)


@given(traces)
def test_first_occurrences_cold(keys):
    d = reuse_distances(keys)
    seen = set()
    for key, dist in zip(keys, d):
        if key not in seen:
            assert dist == COLD
            seen.add(key)
        else:
            assert 0 <= dist < len(seen)


@given(traces, st.integers(1, 16))
@settings(max_examples=100)
def test_fully_assoc_lru_equals_distance_criterion(keys, capacity):
    addrs = np.asarray(keys, dtype=np.int64) * 32
    cfg = CacheConfig("t", capacity * 32, 32, 0)
    miss = simulate_cache(cfg, addrs)
    rd = reuse_distances(keys)
    expected = (rd == COLD) | (rd >= capacity)
    assert np.array_equal(miss, expected)


@given(traces, st.integers(1, 16))
@settings(max_examples=100)
def test_belady_no_worse_than_lru(keys, capacity):
    addrs = np.asarray(keys, dtype=np.int64) * 32
    cfg = CacheConfig("t", capacity * 32, 32, 0)
    assert simulate_belady(cfg, addrs).sum() <= simulate_cache(cfg, addrs).sum()


@given(traces, st.sampled_from([1, 2, 4, 0]))
@settings(max_examples=100)
def test_belady_lower_bounds_every_geometry(keys, assoc):
    """OPT replacement at full capacity lower-bounds every LRU geometry.

    (Note: fully-associative LRU does NOT dominate set-associative LRU in
    general — hypothesis found the classic counterexample — so the only
    universally true ordering is against Belady.)
    """
    addrs = np.asarray(keys, dtype=np.int64) * 32
    capacity_lines = 8
    cfg = CacheConfig("t", capacity_lines * 32, 32, assoc)
    full = CacheConfig("t", capacity_lines * 32, 32, 0)
    assert simulate_cache(cfg, addrs).sum() >= simulate_belady(full, addrs).sum()


@given(traces, st.integers(1, 12))
def test_larger_cache_never_misses_more_fully_assoc(keys, capacity):
    addrs = np.asarray(keys, dtype=np.int64) * 32
    small = CacheConfig("t", capacity * 32, 32, 0)
    big = CacheConfig("t", (capacity + 4) * 32, 32, 0)
    assert simulate_cache(big, addrs).sum() <= simulate_cache(small, addrs).sum()
