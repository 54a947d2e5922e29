"""Memory layouts: from canonical element indices to byte addresses.

A :class:`Layout` assigns every array element a distinct byte address.
Computation reordering (fusion) changes the *trace*; data reordering
(regrouping, padding) changes the *layout*; the cache simulator consumes
both — which is exactly the paper's two-step decomposition.

Every layout this system produces is per-array affine: ``address(idx) =
offset + sum(strides[k] * (idx[k] - 1))`` in elements.  Interleaving two
arrays at the element level, for example, gives both a doubled innermost
stride and consecutive offsets.

A trace carries canonical column-major element indices, not subscripts,
but affinity means most of the decode never has to happen.  Two adjacent
dimensions whose strides *nest* (``strides[k+1] == strides[k] *
shape[k]``) address like one dimension of ``shape[k] * shape[k+1]``
elements, so :func:`_collapse` merges them.  Every default or padded
layout, and every element-level interleave, collapses to a single
dimension per array and its address is ``offset[a] + elem * stride[a]``
— two table gathers and a multiply-add, no division.  Only a stride
*break* survives merging (regrouping whole columns of several arrays
leaves one between the column and the rest), and each surviving break
costs one ``divmod`` over the trace (:meth:`Layout.divmods` counts them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ...interp.trace import AccessTrace
from ...lang import Program, SimulationError


@dataclass(frozen=True)
class ArrayPlacement:
    """Placement of one array: element offset + per-dimension strides.

    ``strides[k]`` multiplies ``(idx_k - 1)`` where ``k`` orders dimensions
    innermost-first (column-major canonical order).  Units are elements.
    """

    name: str
    shape: tuple[int, ...]  # concrete extents, innermost-first
    offset: int
    strides: tuple[int, ...]
    elem_size: int = 8


def _collapse(p: ArrayPlacement) -> list[tuple[int, int]]:
    """``(extent, stride)`` of ``p``'s dimensions, innermost first, after
    merging every dimension into the one below it when their strides nest."""
    dims: list[tuple[int, int]] = []
    for extent, stride in zip(p.shape, p.strides):
        if dims and stride == dims[-1][0] * dims[-1][1]:
            dims[-1] = (dims[-1][0] * extent, dims[-1][1])
        else:
            dims.append((extent, stride))
    return dims


@dataclass
class Layout:
    """A complete memory layout for a program at a concrete input size."""

    placements: dict[str, ArrayPlacement]
    total_elems: int
    description: str = "default"

    def divmods(self, array_names: Sequence[str]) -> int:
        """Divisions per access :meth:`addresses` pays over these arrays:
        the most stride breaks any of them keeps after :func:`_collapse`
        (0 for every layout whose strides nest)."""
        return max(
            [0] + [len(_collapse(self.placements[n])) - 1 for n in array_names]
        )

    def addresses(self, trace: AccessTrace, in_bytes: bool = True) -> np.ndarray:
        """Vectorized translation of a trace into addresses.

        Each array's collapsed dimensions (see the module docstring) go
        into per-level tables indexed by array id, with ``offset``,
        ``elem_size`` and ``in_bytes`` folded in once.  Arrays with fewer
        dimensions than the deepest are padded with ``(extent 1, stride
        0)``, so the last remainder of an in-range element is always
        below the last extent — one unsigned compare rejects elements
        past their own array and negative ones alike.
        """
        names = trace.array_names
        if len(trace) == 0:
            return np.empty(0, dtype=np.int64)
        if trace.array_ids.min() < 0 or trace.array_ids.max() >= len(names):
            raise SimulationError("array id outside the trace's array table in layout")
        levels = self.divmods(names) + 1
        extents = np.ones((levels, len(names)), dtype=np.int64)
        strides = np.zeros((levels, len(names)), dtype=np.int64)
        offsets = np.zeros(len(names), dtype=np.int64)
        for a, name in enumerate(names):
            p = self.placements[name]
            scale = p.elem_size if in_bytes else 1
            offsets[a] = p.offset * scale
            for k, (extent, stride) in enumerate(_collapse(p)):
                extents[k, a] = extent
                strides[k, a] = stride * scale
        aid = trace.array_ids.astype(np.intp)
        addr = offsets.take(aid)
        rem = np.asarray(trace.elems, dtype=np.int64)
        for k in range(levels - 1):
            rem, term = np.divmod(rem, extents[k].take(aid))
            term *= strides[k].take(aid)
            addr += term
        if np.any(rem.view(np.uint64) >= extents[-1].take(aid).view(np.uint64)):
            raise SimulationError("element index exceeded array shape in layout")
        term = strides[-1].take(aid)
        term *= rem
        addr += term
        return addr

    def check_bijective(self) -> None:
        """Verify no two elements share an address (test support).

        Walks every element of every array — intended for small sizes.
        """
        seen: dict[int, tuple[str, tuple[int, ...]]] = {}
        for p in self.placements.values():
            for flat in range(int(np.prod(p.shape))):
                rem = flat
                addr = p.offset
                idx = []
                for k, extent in enumerate(p.shape):
                    component = rem % extent
                    rem //= extent
                    addr += component * p.strides[k]
                    idx.append(component + 1)
                if addr in seen:
                    raise SimulationError(
                        f"layout collision at {addr}: {p.name}{tuple(idx)} vs {seen[addr]}"
                    )
                seen[addr] = (p.name, tuple(idx))


def default_layout(program: Program, params: Mapping[str, int]) -> Layout:
    """Arrays placed back to back, column-major, no padding or grouping."""
    placements: dict[str, ArrayPlacement] = {}
    base = 0
    for decl in program.arrays:
        shape = decl.shape(params)
        strides = []
        acc = 1
        for extent in shape:
            strides.append(acc)
            acc *= extent
        placements[decl.name] = ArrayPlacement(
            decl.name, shape, base, tuple(strides), decl.elem_size
        )
        base += acc
    return Layout(placements, base, "default")


def padded_layout(
    program: Program,
    params: Mapping[str, int],
    pad_elems: int = 8,
) -> Layout:
    """Inter-array padding baseline (what the paper credits SGI's compiler
    with): arrays are offset by ``pad_elems`` extras to stagger their cache
    set mappings, reducing conflict misses without changing contiguity.
    """
    placements: dict[str, ArrayPlacement] = {}
    base = 0
    for k, decl in enumerate(program.arrays):
        shape = decl.shape(params)
        strides = []
        acc = 1
        for extent in shape:
            strides.append(acc)
            acc *= extent
        placements[decl.name] = ArrayPlacement(
            decl.name, shape, base, tuple(strides), decl.elem_size
        )
        # stagger each array by a different multiple of the pad so same-
        # shaped arrays never share cache-set phase
        base += acc + pad_elems * ((k % 7) + 1)
    return Layout(placements, base, f"padded({pad_elems})")
