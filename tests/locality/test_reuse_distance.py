"""Reuse-distance tests, including the paper's Fig. 1 example."""

import numpy as np
import pytest

from repro.locality import (
    COLD,
    miss_count,
    reuse_distances,
    reuse_distances_naive,
)


def test_fig1_example():
    # "a b c a a c b": distinct-items-between definition
    keys = [0, 1, 2, 0, 0, 2, 1]
    d = reuse_distances(keys)
    assert list(d) == [COLD, COLD, COLD, 2, 0, 1, 2]


def test_fused_sequence_all_zero():
    # Fig. 1(b): "a a b b c c" after fusion — every reuse distance 0
    keys = [0, 0, 1, 1, 2, 2]
    d = reuse_distances(keys)
    assert list(d) == [COLD, 0, COLD, 0, COLD, 0]


def test_empty_and_single():
    assert len(reuse_distances([])) == 0
    assert list(reuse_distances([7])) == [COLD]


def test_repeated_same_key():
    d = reuse_distances([5] * 6)
    assert list(d) == [COLD, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("universe", [3, 20, 200])
def test_agrees_with_naive_oracle(seed, universe):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, size=400).tolist()
    assert list(reuse_distances(keys)) == reuse_distances_naive(keys)


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 700, 5000])
def test_prior_greater_counts_inversions_per_element(size):
    """The helper shared with the fully-associative simulator: sparse
    distinct values (not a permutation), across the pairwise-block and
    bit-partition boundaries, also through a reversed view."""
    from repro.locality.reuse_distance import prior_greater

    bound = 3 * size + 7
    values = np.random.default_rng(size).permutation(bound)[:size].astype(np.int32)
    want = [int((values[:j] > values[j]).sum()) for j in range(size)]
    assert prior_greater(values, bound).tolist() == want
    assert prior_greater(values[::-1], bound).tolist() == [
        int((values[j + 1 :] > values[j]).sum()) for j in range(size)
    ][::-1]


def test_cyclic_scan_distance_equals_working_set():
    keys = list(range(10)) * 3
    d = reuse_distances(keys)
    # after the cold pass, every reuse sees 9 distinct items in between
    assert all(x == 9 for x in d[10:])


def test_miss_count_and_hit_ratio():
    keys = list(range(10)) * 3
    d = reuse_distances(keys)
    # capacity 10 holds the whole working set: only cold misses
    assert miss_count(d, 10) == 10
    # capacity 9 thrashes completely
    assert miss_count(d, 9) == 30


def test_miss_ratio_curve_matches_direct_counting():
    import numpy as np

    from repro.locality import miss_ratio_curve

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 64, 4000)
    d = reuse_distances(keys)
    curve = miss_ratio_curve(d, [1, 4, 16, 64, 256])
    for capacity, ratio in curve.items():
        assert ratio == pytest.approx(miss_count(d, capacity) / len(d))
    # monotone non-increasing in capacity
    values = [curve[c] for c in sorted(curve)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# -- output contract and rejected inputs ----------------------------------------


def test_output_contract():
    assert COLD == -1
    keys = np.array([3, 1, 3, 3, 1], dtype=np.int32)
    before = keys.copy()
    d = reuse_distances(keys)
    assert d.dtype == np.int64 and d.shape == keys.shape
    assert list(d) == [COLD, COLD, 1, 0, 1]
    assert np.array_equal(keys, before)  # the caller's array is not sorted in place
    wide = np.array([5, 2**45, 5, -(2**62), 2**45], dtype=np.int64)
    before = wide.copy()
    assert list(reuse_distances(wide)) == [COLD, COLD, 1, COLD, 2]
    assert np.array_equal(wide, before)
    for empty in ([], np.zeros(0, dtype=np.int64)):
        assert reuse_distances(empty).dtype == np.int64


@pytest.mark.parametrize(
    "keys",
    [
        np.array([True, False, True]),
        np.array([1, 0, 1], dtype=np.uint8),
        np.array([2**63 - 1, 0, 2**63 - 1], dtype=np.uint64),
    ],
    ids=["bool", "uint8", "uint64-in-range"],
)
def test_integer_like_dtypes_are_accepted(keys):
    assert list(reuse_distances(keys)) == [COLD, COLD, 1]


def test_address_stream_is_accepted():
    from repro.stream import AddressStream

    stream = AddressStream([0, 8, 16, 0, 8, 16], [False] * 6)
    assert list(reuse_distances(stream)) == [COLD] * 3 + [2] * 3


def test_float_keys_are_rejected_not_truncated():
    # int() would fold 1.5 and 1.7 onto one key and report a reuse
    with pytest.raises(ValueError, match="float64"):
        reuse_distances([1.5, 1.7, 2.2])


def test_two_dimensional_keys_are_rejected():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        reuse_distances(np.zeros((2, 2), dtype=np.int64))


def test_uint64_beyond_int64_is_rejected_not_wrapped():
    with pytest.raises(ValueError, match="uint64"):
        reuse_distances(np.array([2**63, 0, 2**63], dtype=np.uint64))


def test_non_numeric_keys_are_rejected():
    with pytest.raises(ValueError, match="dtype"):
        reuse_distances(["a", "b", "a"])
    with pytest.raises(ValueError, match="object"):
        reuse_distances([2**70, 1, 2**70])


def test_one_span_and_one_counter_per_call():
    from repro.obs import SpanCollector, metrics

    # 100 reuses across a window of 99 accesses, then 38 one back
    keys = np.concatenate([np.tile(np.arange(100), 2), np.tile([500, 501], 20)])
    before = metrics.snapshot()
    with SpanCollector() as collector:
        reuse_distances(keys)
    (event,) = collector.events  # nothing per level
    assert event.name == "locality.reuse_distances"
    # only the 100 far reuses are inversion-counted: two partition levels
    # (bits 6 and 5) above the 32-wide blocks
    assert event.attrs == {"accesses": 240, "distinct": 102, "far": 100, "levels": 2}
    delta = metrics.REGISTRY.delta(before, metrics.snapshot())["counters"]
    assert delta == {"locality.reuse.accesses": 240}


# -- mid-size differential against the scalar simulator -------------------------


def test_adi_profile_matches_reference_simulator_at_every_capacity():
    """The ledger's oracle at a size tier-1 can afford: on a
    fully-associative one-element-line LRU cache the misses at capacity C
    are the cold accesses plus the reuses at distance >= C."""
    import fences
    from repro.codegen import trace_program
    from repro.memsim import CacheConfig, simulate_cache
    from repro.memsim.geometry import ELEM_BYTES
    from repro.stream import AddressStream

    variant = fences.compiled("adi", "noopt")
    trace = trace_program(variant.program, {"N": 24}, steps=fences.steps("adi"))
    keys = np.asarray(AddressStream.from_trace(trace))
    d = reuse_distances(keys)
    cold = len(np.unique(keys))
    assert miss_count(d, 2**62) == cold
    capacity = 1
    while True:
        config = CacheConfig("fa", capacity * ELEM_BYTES, ELEM_BYTES, 0)
        expected = int(
            simulate_cache(config, keys * ELEM_BYTES, engine="reference").sum()
        )
        assert miss_count(d, capacity) == expected, capacity
        if expected == cold:
            break
        capacity *= 2
