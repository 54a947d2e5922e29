"""Deterministic numeric bindings for the opaque functions in programs.

The paper's kernels compute through functions the compiler treats as black
boxes (``f``, ``g``, ...).  The interpreter needs *some* concrete
semantics, and transformation tests need bit-for-bit reproducibility:
fusion and regrouping only reorder whole statement instances (never the
operations inside one expression), so any deterministic pure function
works as an oracle.

Every unknown function name resolves to a linear combination whose
coefficients are derived from a stable hash of ``(name, arity, position)``
— so ``f(x, y)`` and ``g(x, y)`` differ, as do ``f(x)`` and ``f(x, y)``.
Linear-with-decay coefficients (all in (0, 1)) keep iterated stencils from
overflowing even over many sweeps.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Sequence

_BUILTINS: dict[str, Callable[..., float]] = {
    "sqrt": lambda x: math.sqrt(abs(x)),
    "abs": abs,
    "min": min,
    "max": max,
    "exp": lambda x: math.exp(-abs(x)),  # bounded on purpose
    "sin": math.sin,
    "cos": math.cos,
}


def _stable_unit(name: str, arity: int, position: int) -> float:
    """A deterministic value in (0.05, 0.95) from a stable digest."""
    digest = hashlib.sha256(f"{name}/{arity}/{position}".encode()).digest()
    raw = int.from_bytes(digest[:8], "big") / 2**64
    return 0.05 + 0.9 * raw


class FunctionTable:
    """Resolves function names to deterministic numeric implementations."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], Callable[..., float]] = {}
        self._specs: dict[tuple[str, int], tuple[tuple[float, ...], float]] = {}

    def linear_spec(
        self, name: str, arity: int
    ) -> "tuple[tuple[float, ...], float] | None":
        """The ``(coeffs, offset)`` of an opaque function; None for builtins.

        :meth:`resolve` evaluates it as ``sum(c * a for ...) + offset``.
        """
        if name in _BUILTINS:
            return None
        key = (name, arity)
        spec = self._specs.get(key)
        if spec is None:
            coeffs = tuple(_stable_unit(name, arity, k) for k in range(arity))
            # scale so the combination is an average-like contraction
            total = sum(coeffs) or 1.0
            coeffs = tuple(c / total for c in coeffs)
            offset = (_stable_unit(name, arity, arity) - 0.5) * 0.01
            spec = self._specs[key] = (coeffs, offset)
        return spec

    def resolve(self, name: str, arity: int) -> Callable[..., float]:
        if name in _BUILTINS:
            return _BUILTINS[name]
        key = (name, arity)
        fn = self._cache.get(key)
        if fn is None:
            coeffs, offset = self.linear_spec(name, arity)

            def fn(*args: float, _coeffs=coeffs, _offset=offset) -> float:
                return sum(c * a for c, a in zip(_coeffs, args)) + _offset

            self._cache[key] = fn
        return fn

    def call(self, name: str, args: Sequence[float]) -> float:
        return self.resolve(name, len(args))(*args)


#: Module-level default table shared by interpreter instances.
DEFAULT_FUNCTIONS = FunctionTable()
