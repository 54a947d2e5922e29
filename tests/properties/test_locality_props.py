"""Property-based tests: reuse distance and cache simulation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import simulate_belady
from repro.locality import COLD, reuse_distances, reuse_distances_naive
from repro.locality.reuse_distance import _NEAR
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


def _windows(keys):
    """The window (accesses strictly between) of every non-cold access."""
    last, out = {}, []
    for t, key in enumerate(keys):
        if key in last:
            out.append(t - last[key] - 1)
        last[key] = t
    return out


def _far_reuses_among_near(far, rng):
    """Exactly ``far`` reuses whose window reaches ``_NEAR``, with near
    reuses of fresh keys nested inside their windows (``a b a b``) and
    straddling their ends (``y k y`` around an access ``k`` of a far
    link); inserting only lengthens a far window, so none turns near."""
    cycle = _NEAR + 1  # every reuse of the cycle has a window of _NEAR
    keys, fresh = [], 10**6
    for t in range(cycle + far):
        shape = rng.integers(0, 4)
        if shape == 1:
            keys += [fresh, fresh + 1, fresh, fresh + 1]
        keys += [fresh + 2, t % cycle, fresh + 2] if shape == 2 else [t % cycle]
        fresh += 3
    return keys


@pytest.mark.parametrize("count", ["accesses", "reuses", "far"])
@pytest.mark.parametrize("size", BOUNDARIES)
def test_reuse_distance_equals_naive_at_kernel_boundaries(size, count):
    """The kernel's shape depends on the number of far reuses (partition
    levels, block padding), of non-cold accesses and of accesses
    (position bits): put each exactly on, just under and just over every
    power of two."""
    rng = np.random.default_rng(size)
    if count == "far":
        keys = _far_reuses_among_near(size, rng)
        windows = _windows(keys)
        assert sum(w >= _NEAR for w in windows) == size
        assert min(windows) < _NEAR
    else:
        distinct = 13
        reuses = size if count == "reuses" else size - distinct
        keys = list(range(distinct)) + rng.integers(0, distinct, reuses).tolist()
    assert list(reuse_distances(keys)) == reuse_distances_naive(keys)


def _cycles(*widths, laps=30):
    """Fresh keys cycled so that every reuse's window is exactly ``w``,
    one block per ``w``."""
    keys = []
    for block, w in enumerate(widths):
        keys += [1000 * block + k for k in range(w + 1)] * laps
    return keys


@pytest.mark.parametrize(
    "keys",
    [
        pytest.param([7] * 1025, id="all-equal"),
        pytest.param(list(range(-600, 600)), id="all-distinct"),
        pytest.param(list(range(97)) * 21, id="sawtooth"),  # no inversions
        pytest.param(
            (list(range(65)) + list(range(64, -1, -1))) * 16, id="zigzag"
        ),  # every turn-around inverts all previous positions
        # windows just under, on and just over the near/far split
        pytest.param(_cycles(_NEAR - 1), id="all-near-at-split"),
        pytest.param(_cycles(_NEAR), id="all-far-at-split"),
        pytest.param(_cycles(_NEAR + 1), id="all-far-past-split"),
        pytest.param(
            _cycles(_NEAR - 1, _NEAR, _NEAR + 1, _NEAR, _NEAR - 1), id="mixed-at-split"
        ),
        pytest.param(_cycles(0, 1, 3, 7, laps=200), id="all-near"),
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
