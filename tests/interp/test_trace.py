"""AccessTrace container tests."""

import numpy as np

from repro.interp import AccessTrace
from repro.interp.trace import RefInfo, concat_traces


def piece(array_ids, elems, writes, instr_ids):
    return AccessTrace(
        array_names=("A", "B"),
        array_ids=np.array(array_ids, np.int32),
        elems=np.array(elems, np.int64),
        writes=np.array(writes, bool),
        ref_ids=np.zeros(len(elems), np.int32),
        instr_ids=np.array(instr_ids, np.int64),
        refs=(RefInfo(0, 0, "A", False, "A[i]"),),
        array_sizes=(10, 20),
    )


def make_trace():
    return concat_traces([
        piece([0, 1, 0], [3, 5, 3], [False, True, True], [0, 0, 1]),
        piece([1], [19], [False], [2]),
    ])


def test_builder_concatenates():
    t = make_trace()
    assert len(t) == 4
    assert t.array_names == ("A", "B")
    assert list(t.elems) == [3, 5, 3, 19]


def test_global_keys_offsets_by_array_size():
    t = make_trace()
    keys = t.global_keys()
    # A occupies [0, 10), B occupies [10, 30)
    assert list(keys) == [3, 15, 3, 29]


def test_reordered_permutes_all_columns():
    t = make_trace()
    order = np.array([3, 2, 1, 0])
    r = t.reordered(order)
    assert list(r.elems) == [19, 3, 5, 3]
    assert list(r.instr_ids) == [2, 1, 0, 0]
    assert list(r.array_ids) == [1, 0, 1, 0]


def test_slice():
    t = make_trace()
    s = t.slice(1, 3)
    assert len(s) == 2
    assert list(s.elems) == [5, 3]


def test_iter_accesses():
    t = make_trace()
    rows = list(t.iter_accesses())
    assert rows[0] == ("A", 3, False)
    assert rows[3] == ("B", 19, False)
