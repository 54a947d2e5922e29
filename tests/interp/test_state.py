"""State initialization and slice-provenance tests."""

import numpy as np
import pytest

from repro.interp import init_arrays
from repro.lang import (
    ArrayDecl, Param, Program, SliceOrigin, ValidationError, check_params,
)


def prog(arrays):
    return Program("t", ("N",), tuple(arrays), ())


def test_deterministic_per_name():
    p = prog([ArrayDecl("A", (Param("N"),)), ArrayDecl("B", (Param("N"),))])
    s1 = init_arrays(p, {"N": 8})
    s2 = init_arrays(p, {"N": 8})
    assert np.array_equal(s1["A"], s2["A"])
    assert not np.array_equal(s1["A"], s1["B"])


def test_adding_arrays_does_not_perturb_existing():
    p1 = prog([ArrayDecl("A", (Param("N"),))])
    p2 = prog([ArrayDecl("Z", (Param("N"),)), ArrayDecl("A", (Param("N"),))])
    assert np.array_equal(
        init_arrays(p1, {"N": 16})["A"], init_arrays(p2, {"N": 16})["A"]
    )


def test_slice_origin_reconstructs_parent_data():
    full = prog([ArrayDecl("U", (Param("N"), Param("N"), Param("N")))])
    ref = init_arrays(full, {"N": 6})["U"]
    # U_2 = U[:, 1, :] in 0-based terms (split dim 1, index 2, extent 6)
    split = prog(
        [
            ArrayDecl(
                "U_2",
                (Param("N"), Param("N")),
                origin="U",
                origin_slice=SliceOrigin("U", 1, 2, 6),
            )
        ]
    )
    got = init_arrays(split, {"N": 6})["U_2"]
    assert np.array_equal(got, ref[:, 1, :])


def test_chained_slice_origin():
    full = prog([ArrayDecl("U", (Param("N"), Param("N"), Param("N")))])
    ref = init_arrays(full, {"N": 5})["U"]
    chain = SliceOrigin("U_3", 0, 2, 5, parent=SliceOrigin("U", 2, 3, 5))
    split = prog(
        [ArrayDecl("X", (Param("N"),), origin="U", origin_slice=chain)]
    )
    got = init_arrays(split, {"N": 5})["X"]
    # parent slice first (dim 2, index 3), then leaf slice (dim 0, index 2)
    assert np.array_equal(got, ref[:, :, 2][1, :])


def test_check_params():
    p = prog([ArrayDecl("A", (Param("N"),))])
    assert check_params(p, {"N": 4}) == {"N": 4}
    with pytest.raises(ValidationError):
        check_params(p, {})
    with pytest.raises(ValidationError):
        check_params(p, {"N": -1})
