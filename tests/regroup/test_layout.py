"""Layout engine tests: address translation must be exact and vectorized."""

import numpy as np
import pytest

from repro.core.regroup import default_layout, regroup_plan
from repro.core.regroup.layout import ArrayPlacement, Layout
from repro.interp import trace_program
from repro.interp.trace import AccessTrace
from repro.lang import SimulationError

import fences
from conftest import build


def test_default_layout_sequential():
    p = build(
        "program t\nparam N\nreal A[N, N], B[N]\nA[1, 1] = B[1]"
    )
    layout = default_layout(p, {"N": 4})
    assert layout.placements["A"].offset == 0
    assert layout.placements["B"].offset == 16
    assert layout.total_elems == 20


def test_addresses_match_manual_computation():
    p = build(
        """
        program t
        param N
        real A[N, N]
        for i = 1, N { for j = 1, N { A[j, i] = f(A[j, i]) } }
        """
    )
    n = 5
    trace = trace_program(p, {"N": n})
    layout = default_layout(p, {"N": n})
    addrs = layout.addresses(trace, in_bytes=False)
    # manual: column-major (j fastest), A[j,i] -> (j-1) + (i-1)*n
    k = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = (j - 1) + (i - 1) * n
            assert addrs[k] == expected  # read
            assert addrs[k + 1] == expected  # write
            k += 2


def test_byte_addresses_scale_by_elem_size():
    p = build("program t\nparam N\nreal A[N]\nA[2] = A[1]")
    trace = trace_program(p, {"N": 4})
    layout = default_layout(p, {"N": 4})
    assert list(layout.addresses(trace, in_bytes=False)) == [0, 1]
    assert list(layout.addresses(trace, in_bytes=True)) == [0, 8]


def test_regrouped_addresses_use_new_strides(fig7_program):
    n = 4
    trace = trace_program(fig7_program, {"N": n})
    layout = regroup_plan(fig7_program).materialize({"N": n})
    addrs = layout.addresses(trace, in_bytes=False)
    # first iteration accesses A[1,1] (addr 0), B[1,1] (addr 1)
    names = [fig7_program.arrays[a].name for a in trace.array_ids[:4]]
    assert addrs[0] == 0  # A[1,1] read
    assert addrs[1] == 1  # B[1,1] read


def test_collision_detected():
    bad = Layout(
        {
            "A": ArrayPlacement("A", (4,), 0, (1,)),
            "B": ArrayPlacement("B", (4,), 2, (1,)),  # overlaps A
        },
        8,
    )
    with pytest.raises(SimulationError, match="collision"):
        bad.check_bijective()


def test_mixed_rank_arrays_in_one_layout():
    p = build(
        """
        program t
        param N
        real A[N, N, N], B[N]
        for i = 1, N { B[i] = f(A[1, 1, i]) }
        """
    )
    trace = trace_program(p, {"N": 4})
    layout = default_layout(p, {"N": 4})
    addrs = layout.addresses(trace, in_bytes=False)
    layout.check_bijective()
    assert addrs[0] == 0 + 0 * 4 + 0 * 16  # A[1,1,1]
    assert addrs[1] == 64  # B[1] right after A


# -- addresses(): the collapsed affine decode against a per-access one -----


def _scalar_addresses(layout, trace, in_bytes):
    """``offset + sum(stride * digit)`` per access, the column-major
    decode ``check_bijective`` walks."""
    out = []
    for aid, elem in zip(trace.array_ids.tolist(), trace.elems.tolist()):
        p = layout.placements[trace.array_names[aid]]
        addr = p.offset
        for extent, stride in zip(p.shape, p.strides):
            addr += (elem % extent) * stride
            elem //= extent
        assert elem == 0
        out.append(addr * (p.elem_size if in_bytes else 1))
    return out


def _trace_of(names, ids, elems):
    n = len(ids)
    return AccessTrace(
        array_names=tuple(names),
        array_ids=np.asarray(ids, dtype=np.int32),
        elems=np.asarray(elems, dtype=np.int64),
        writes=np.zeros(n, dtype=bool),
        ref_ids=np.zeros(n, dtype=np.int32),
    )


def _every_element(layout, names, seed=0):
    """A trace touching every element of every named array, shuffled."""
    ids, elems = [], []
    for k, name in enumerate(names):
        size = int(np.prod(layout.placements[name].shape, dtype=np.int64))
        ids += [k] * size
        elems += range(size)
    order = np.random.default_rng(seed).permutation(len(ids))
    return _trace_of(names, np.asarray(ids)[order], np.asarray(elems)[order])


#: name -> (placement, stride breaks left after collapsing)
SYNTHETIC = {
    "nest": (ArrayPlacement("nest", (3, 4, 5), 7, (1, 3, 12)), 0),
    "padlead": (ArrayPlacement("padlead", (3, 4), 100, (1, 5)), 1),
    "break2": (ArrayPlacement("break2", (3, 4, 5), 200, (1, 3, 20)), 1),
    "break12": (ArrayPlacement("break12", (3, 4, 5), 400, (1, 4, 21)), 2),
    "weaveA": (ArrayPlacement("weaveA", (3, 4), 900, (3, 9)), 0),
    "weaveB": (ArrayPlacement("weaveB", (3, 4), 901, (3, 9), elem_size=4), 0),
    "point": (ArrayPlacement("point", (), 950, ()), 0),
    "narrow": (ArrayPlacement("narrow", (6,), 960, (1,), elem_size=4), 0),
}


@pytest.mark.parametrize("in_bytes", [True, False])
@pytest.mark.parametrize(
    "names",
    [(n,) for n in SYNTHETIC] + [tuple(SYNTHETIC), ("point", "break12", "nest")],
    ids="+".join,
)
def test_addresses_match_scalar_decode_on_synthetic_placements(names, in_bytes):
    layout = Layout({n: SYNTHETIC[n][0] for n in SYNTHETIC}, 1000)
    assert layout.divmods(names) == max(SYNTHETIC[n][1] for n in names)
    trace = _every_element(layout, names)
    got = layout.addresses(trace, in_bytes=in_bytes)
    assert got.dtype == np.int64
    assert got.tolist() == _scalar_addresses(layout, trace, in_bytes)


REGISTRY_SIZES = {"adi": 9, "sp": 7, "sweep3d": 6, "swim": 9, "tomcatv": 9}


@pytest.mark.parametrize("level", ["noopt", "regroup", "new"])
@pytest.mark.parametrize("name", sorted(REGISTRY_SIZES) + ["fft"])
def test_addresses_match_scalar_decode_on_registry_layouts(name, level):
    from repro.codegen import trace_program as codegen_trace

    params = {"N": REGISTRY_SIZES[name]} if name in REGISTRY_SIZES else {}
    variant = fences.compiled("fft16" if name == "fft" else name, level)
    layout = variant.layout(params)
    trace = codegen_trace(variant.program, params, steps=1)
    assert len(trace)
    for in_bytes in (True, False):
        got = layout.addresses(trace, in_bytes=in_bytes)
        assert got.tolist() == _scalar_addresses(layout, trace, in_bytes)


def test_regrouping_leaves_a_stride_break_only_where_columns_interleave():
    def divmods(name, level):
        variant = fences.compiled(name, level)
        layout = variant.layout({"N": 9})
        return layout.divmods([d.name for d in variant.program.arrays])

    assert divmods("adi", "noopt") == 0
    assert divmods("adi", "new") == 0  # element-level interleave: strides nest
    assert divmods("swim", "new") == 1  # column-level interleave: one break


# -- addresses(): everything outside the layout is a SimulationError --------


def _three_arrays():
    return Layout(
        {
            "A": ArrayPlacement("A", (4, 4), 0, (1, 4)),
            "B": ArrayPlacement("B", (2, 3), 16, (1, 3)),  # padded: one break
            "C": ArrayPlacement("C", (6,), 26, (1,)),
        },
        32,
    )


@pytest.mark.parametrize(
    "aid, elem",
    [
        (0, -1),  # negative element
        (0, 16),  # elem == size
        (1, 6),  # past its own array, though inside the layout (and inside A)
        (1, -1),
        (-1, 0),  # id -1 used to wrap to the last array
        (2, 0),  # id == len(array_names)
    ],
)
@pytest.mark.parametrize("names", [("A", "B"), ("A", "C")], ids=["divmod", "flat"])
def test_out_of_range_ids_and_elements_raise(names, aid, elem):
    layout = _three_arrays()
    good = layout.addresses(_trace_of(names, [0, 1], [15, 5]), in_bytes=False)
    assert good.tolist() == [15, {"B": 16 + 1 + 2 * 3, "C": 26 + 5}[names[1]]]
    with pytest.raises(SimulationError, match="layout"):
        layout.addresses(_trace_of(names, [0, aid], [0, elem]))


def test_empty_trace_and_empty_array_table():
    empty = _three_arrays().addresses(_trace_of(("A", "B"), [], []))
    assert empty.dtype == np.int64 and len(empty) == 0
    nothing = Layout({}, 0)
    assert len(nothing.addresses(_trace_of((), [], []))) == 0
    assert nothing.divmods(()) == 0
    with pytest.raises(SimulationError, match="layout"):
        nothing.addresses(_trace_of((), [0], [0]))
