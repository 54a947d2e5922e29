"""Program state: deterministic array initialization and environments.

Arrays are numpy float64 buffers indexed 1-based (the accessor subtracts
one); the same deterministic initial contents are produced for every run
with the same seed, so "optimized output == original output" is a
meaningful bit-level check.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..lang import Program


def init_arrays(
    program: Program, params: Mapping[str, int], seed: int = 2001
) -> dict[str, np.ndarray]:
    """Allocate and deterministically initialize every declared array.

    Each array gets values from its own :class:`numpy.random.Generator`
    stream keyed by ``(seed, array name)``, so adding or regrouping other
    arrays never perturbs its contents.
    """
    state: dict[str, np.ndarray] = {}
    decls = {a.name: a for a in program.arrays}

    def generate(name: str, shape: tuple[int, ...]) -> np.ndarray:
        rng = np.random.default_rng(
            np.frombuffer(
                f"{seed}/{name}".encode().ljust(16, b"\0")[:16], dtype=np.uint32
            )
        )
        return rng.uniform(-1.0, 1.0, size=shape)

    def origin_data(origin, shape: tuple[int, ...]) -> np.ndarray:
        # reconstruct the pre-split array's data and take the slice, so
        # split programs start from identical values as the original
        full_shape = shape[: origin.dim] + (origin.extent,) + shape[origin.dim :]
        if origin.parent is not None:
            full = origin_data(origin.parent, full_shape)
        else:
            full = generate(origin.name, full_shape)
        return np.take(full, origin.index - 1, axis=origin.dim).copy()

    for decl in program.arrays:
        shape = decl.shape(params)
        if decl.origin_slice is not None:
            state[decl.name] = origin_data(decl.origin_slice, shape)
        else:
            state[decl.name] = generate(decl.name, shape)
    return state
