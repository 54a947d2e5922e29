"""Array splitting: eliminate small constant data dimensions (§4.1).

After unrolling, a dimension of small constant size is only ever
subscripted by constants; the array is split into one array per slice
(SP's 15 arrays become 42 this way in the paper).  Split arrays become
independent units for data regrouping — which is the point: regrouping
can then interleave exactly the slices that are used together.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional

from ..lang import ArrayDecl, ArrayRef, Assign, Expr, Program, SliceOrigin, map_exprs


def _splittable_dim(
    program: Program, decl: ArrayDecl, max_extent: int
) -> Optional[tuple[int, int]]:
    """(dim index, extent) of a splittable dimension, or None.

    A dimension splits when its extent is a constant <= max_extent, the
    array would keep at least one dimension, and every reference
    subscripts it with a constant.
    """
    if decl.ndim < 2:
        return None
    candidates = []
    for k, ext in enumerate(decl.extent_affines()):
        if ext.is_constant() and 1 <= ext.int_value() <= max_extent:
            candidates.append((k, ext.int_value()))
    if not candidates:
        return None
    constant_ok = {k: True for k, _ in candidates}
    for stmt in program.walk():
        if not isinstance(stmt, Assign):
            continue
        for node in list(stmt.expr.walk()) + list(stmt.target.walk()):
            if isinstance(node, ArrayRef) and node.array == decl.name:
                for k, _ in candidates:
                    if not node.indices[k].affine().is_constant():
                        constant_ok[k] = False
    for k, ext in candidates:
        if constant_ok[k]:
            return k, ext
    return None


def _slice_name(base: str, value: int) -> str:
    return f"{base}_{value}"


def _split_ref(splits: dict[str, tuple[int, int]], e: Expr) -> Expr:
    """``A[.., c, ..]`` of a split dimension becomes the slice ``A_c[.., ..]``."""
    split = splits.get(e.array) if isinstance(e, ArrayRef) else None
    if split is None:
        return e
    dim, _ = split
    value = e.indices[dim].affine().int_value()
    return ArrayRef(_slice_name(e.array, value), e.indices[:dim] + e.indices[dim + 1:])


def split_arrays(program: Program, max_extent: int = 5) -> Program:
    """Split every splittable small dimension (repeats to a fixpoint)."""
    while True:
        splits: dict[str, tuple[int, int]] = {}
        for decl in program.arrays:
            found = _splittable_dim(program, decl, max_extent)
            if found is not None:
                splits[decl.name] = found
        if not splits:
            return program
        new_arrays: list[ArrayDecl] = []
        for decl in program.arrays:
            if decl.name in splits:
                dim, extent = splits[decl.name]
                rest = decl.extents[:dim] + decl.extents[dim + 1:]
                for value in range(1, extent + 1):
                    new_arrays.append(
                        ArrayDecl(
                            _slice_name(decl.name, value),
                            rest,
                            elem_size=decl.elem_size,
                            origin=decl.origin or decl.name,
                            origin_slice=SliceOrigin(
                                decl.name, dim, value, extent, decl.origin_slice
                            ),
                        )
                    )
            else:
                new_arrays.append(decl)
        program = replace(
            program,
            arrays=tuple(new_arrays),
            body=tuple(
                map_exprs(s, partial(_split_ref, splits)) for s in program.body
            ),
        )
