"""Access-snapshot tests: write chains, epochs, substitution invariance,
and split-array cell canonicalization."""

import pytest

from repro.lang import ValidationError, parse, validate
from repro.transform import split_arrays, unroll_small_loops
from repro.verify import (
    format_cell,
    is_scalar_cell,
    scalar_cell,
    snapshot_program,
)


def snap(source: str, params=None, steps=1):
    return snapshot_program(validate(parse(source)), params, steps)


SIMPLE = """
program t
param N
real A[N], B[N]
for i = 1, N {
  A[i] = f(B[i], A[i])
}
"""


def test_write_chain_per_cell():
    s = snap(SIMPLE, {"N": 4})
    assert s.write_count() == 4
    for i in range(1, 5):
        (inst,) = s.writes[("A", (i,))]
        assert inst.iters == (("i", i),)
        assert inst.stmt == "A[i] = f(B[i], A[i])"


def test_read_epochs_observe_producing_write():
    s = snap(
        """
        program t
        param N
        real A[N]
        for i = 1, N { A[i] = 1.0 }
        for i = 1, N { A[i] = f(A[i]) }
        """,
        {"N": 3},
    )
    for i in range(1, 4):
        first, second = s.writes[("A", (i,))]
        assert first.reads == ()
        # the second write reads what the first wrote: epoch 0
        assert second.reads == ((("A", (i,)), 0),)


def test_initial_value_reads_have_epoch_minus_one():
    s = snap(SIMPLE, {"N": 2})
    inst = s.writes[("A", (1,))][0]
    assert ((("B", (1,)), -1)) in inst.reads
    assert ((("A", (1,)), -1)) in inst.reads


def test_scalar_cells():
    s = snap(
        """
        program t
        param N
        real A[N]
        scalar t
        t = 2.0
        for i = 1, N { A[i] = t }
        """,
        {"N": 2},
    )
    cell = scalar_cell("t")
    assert is_scalar_cell(cell)
    assert format_cell(cell) == "t"
    assert len(s.writes[cell]) == 1
    assert s.writes[("A", (1,))][0].reads == ((cell, 0),)


def test_steps_repeat_the_body():
    one = snap(SIMPLE, {"N": 3}, steps=1)
    two = snap(SIMPLE, {"N": 3}, steps=2)
    assert two.write_count() == 2 * one.write_count()
    # the second step's write observes the first step's (epoch 0)
    chain = two.writes[("A", (2,))]
    assert (("A", (2,)), 0) in chain[1].reads
    assert (("A", (2,)), -1) in chain[0].reads


def test_signatures_fold_indices_away():
    # unrolling replaces the index variable by literals; signatures must
    # be identical so the unrolled program matches the original
    p = validate(
        parse(
            """
            program t
            param N
            real A[N, 3]
            for i = 1, N {
              for j = 1, 3 { A[i, j] = f(A[i, j], j) }
            }
            """
        )
    )
    unrolled = unroll_small_loops(p, max_trip=5)
    assert unrolled != p  # the pass fired
    a = snapshot_program(p, {"N": 4})
    b = snapshot_program(unrolled, {"N": 4})
    assert a.cells() == b.cells()
    for cell, chain in a.writes.items():
        other = b.writes[cell]
        assert [w.sig for w in chain] == [w.sig for w in other], cell


def test_split_array_cells_canonicalized():
    p = validate(
        parse(
            """
            program t
            param N
            real A[N, 2]
            for i = 1, N {
              A[i, 1] = 1.0
              A[i, 2] = f(A[i, 1])
            }
            """
        )
    )
    split = split_arrays(p, max_extent=5)
    assert any(d.origin_slice is not None for d in split.arrays), (
        "split_arrays should have split A"
    )
    a = snapshot_program(p, {"N": 3})
    b = snapshot_program(split, {"N": 3})
    # cells of the split program are expressed in the original's terms
    assert a.cells() == b.cells()
    assert ("A", (2, 1)) in b.cells()


def test_default_params_used_when_absent():
    s = snap(SIMPLE)
    assert s.params == {"N": 8}
    assert s.write_count() == 8


def test_a_formal_shadows_the_parameter_of_its_name():
    s = snap(
        """
        program t
        param N
        real A[N]
        proc p(N) { A[N] = 1.0 }
        call p(2)
        """,
        {"N": 4},
    )
    assert s.cells() == {("A", (2,))}


def test_format_cell():
    assert format_cell(("A", (2, 3))) == "A[2, 3]"


def test_non_integral_subscript_is_a_validation_error():
    # validates (the subscript is affine), but at i = 1 it names no cell
    source = """
    program t
    param N
    real A[N], B[N]
    for i = 1, N { B[i] = A[i / 2] }
    """
    with pytest.raises(ValidationError) as err:
        snap(source, {"N": 4})
    assert type(err.value) is ValidationError
    assert str(err.value) == "non-integral subscript/bound (i / 2) = 1/2"
