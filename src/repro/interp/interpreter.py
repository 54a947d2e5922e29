"""Reference interpreter for the mini loop language.

This is the *correctness oracle*: every transformation in the compiler is
tested by executing the program before and after on identical initial
state and comparing the final arrays bit for bit.  The execution order is
:class:`~repro.lang.Walk`'s, shared with the legality snapshot and the
trace oracle (:func:`repro.interp.trace_program`); the codegen tracer
(:mod:`repro.codegen`) is the fast path for locality studies.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..lang import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    IndexVar,
    Param,
    Program,
    ScalarRef,
    UnaryOp,
    ValidationError,
    Walk,
    check_params,
)
from .funcs import DEFAULT_FUNCTIONS, FunctionTable
from .state import init_arrays


class Interpreter(Walk):
    """Executes a program over numpy arrays.

    Parameters
    ----------
    program:
        The program to run (should already be validated).
    params:
        Binding of every symbolic parameter to a positive int.
    functions:
        Table resolving opaque function names; defaults to the shared
        deterministic table.
    """

    def __init__(
        self,
        program: Program,
        params: Mapping[str, int],
        functions: FunctionTable = DEFAULT_FUNCTIONS,
    ) -> None:
        self.params = check_params(program, params)
        super().__init__(program, self.params)
        self.functions = functions
        self.arrays: dict[str, np.ndarray] = {}
        self.scalars: dict[str, float] = {name: 0.0 for name in program.scalars}
        self.extents = {d.name: d.shape(self.params) for d in program.arrays}

    def run(self, seed: int = 2001, steps: int = 1) -> dict[str, np.ndarray]:
        """Initialize state, execute the body ``steps`` times, return arrays.

        ``steps`` models the paper's outer time-step loop: all measured
        programs are iterative and re-run the same loop sequence.
        """
        self.arrays = init_arrays(self.program, self.params, seed)
        self.scalars = {name: 0.0 for name in self.program.scalars}
        super().run(steps)
        return self.arrays

    def assign(self, stmt: Assign) -> None:
        value = self.eval(stmt.expr)
        target = stmt.target
        if isinstance(target, ArrayRef):
            self.arrays[target.array][self._subscripts(target)] = value
        else:
            self.scalars[target.name] = value

    def eval(self, expr: Expr) -> float:
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, (Param, IndexVar)):
            return float(self.env[expr.name])
        if isinstance(expr, ScalarRef):
            return self.scalars[expr.name]
        if isinstance(expr, ArrayRef):
            return float(self.arrays[expr.array][self._subscripts(expr)])
        if isinstance(expr, BinOp):
            lhs = self.eval(expr.left)
            rhs = self.eval(expr.right)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "/":
                return lhs / rhs
            raise ValidationError(f"unknown operator {expr.op!r}")
        if isinstance(expr, UnaryOp):
            return -self.eval(expr.operand)
        if isinstance(expr, Call):
            args = [self.eval(a) for a in expr.args]
            return float(self.functions.call(expr.func, args))
        raise ValidationError(f"cannot evaluate {expr!r}")

    def _subscripts(self, ref: ArrayRef) -> tuple[int, ...]:
        extents = self.extents[ref.array]
        out = []
        for k, idx in enumerate(self.values(self.fold(ref, ref.indices))):
            if not 1 <= idx <= extents[k]:
                raise ValidationError(
                    f"{ref.array}[...] dim {k}: index {idx} outside 1..{extents[k]}"
                )
            out.append(idx - 1)
        return tuple(out)


def run_program(
    program: Program,
    params: Mapping[str, int],
    seed: int = 2001,
    steps: int = 1,
    functions: Optional[FunctionTable] = None,
) -> dict[str, np.ndarray]:
    """Convenience wrapper: build an interpreter and run it."""
    interp = Interpreter(program, params, functions or DEFAULT_FUNCTIONS)
    return interp.run(seed=seed, steps=steps)
