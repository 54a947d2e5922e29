"""Reference interpreter for the mini loop language.

This is the *correctness oracle*: every transformation in the compiler is
tested by executing the program before and after on identical initial
state and comparing the final arrays bit for bit.  It favours clarity
over speed — the vectorized trace generator (:mod:`repro.interp.tracegen`)
is the fast path for locality studies.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..lang import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    CallStmt,
    Const,
    Expr,
    Guard,
    IndexVar,
    Loop,
    Param,
    Program,
    ScalarRef,
    Stmt,
    UnaryOp,
    ValidationError,
    check_params,
)
from .funcs import DEFAULT_FUNCTIONS, FunctionTable
from .state import init_arrays


class Interpreter:
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
        self.program = program
        self.params = check_params(program, params)
        self.functions = functions
        self.arrays: dict[str, np.ndarray] = {}
        self.scalars: dict[str, float] = {name: 0.0 for name in program.scalars}
        self._env: dict[str, int] = dict(self.params)
        self._extent_cache: dict[str, tuple[int, ...]] = {}

    # -- public API -----------------------------------------------------------

    def run(self, seed: int = 2001, steps: int = 1) -> dict[str, np.ndarray]:
        """Initialize state, execute the body ``steps`` times, return arrays.

        ``steps`` models the paper's outer time-step loop: all measured
        programs are iterative and re-run the same loop sequence.
        """
        self.arrays = init_arrays(self.program, self.params, seed)
        self.scalars = {name: 0.0 for name in self.program.scalars}
        for decl in self.program.arrays:
            self._extent_cache[decl.name] = decl.shape(self.params)
        for _ in range(steps):
            self.exec_body(self.program.body)
        return self.arrays

    # -- execution ------------------------------------------------------------

    def exec_body(self, body: tuple[Stmt, ...]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            value = self.eval(stmt.expr)
            target = stmt.target
            if isinstance(target, ArrayRef):
                self.arrays[target.array][self._subscripts(target)] = value
            else:
                self.scalars[target.name] = value
        elif isinstance(stmt, Loop):
            lo = self._eval_int(stmt.lower)
            hi = self._eval_int(stmt.upper)
            env = self._env
            outer = env.get(stmt.index)  # a caller's loop of the same name
            for i in range(lo, hi + 1):
                env[stmt.index] = i
                self.exec_body(stmt.body)
            if outer is None:
                env.pop(stmt.index, None)
            else:
                env[stmt.index] = outer
        elif isinstance(stmt, Guard):
            value = self._env.get(stmt.index)
            if value is None:
                raise ValidationError(f"guard index {stmt.index!r} unbound")
            if self._in_intervals(stmt, value):
                self.exec_body(stmt.body)
            else:
                self.exec_body(stmt.else_body)
        elif isinstance(stmt, CallStmt):
            proc = self.program.procedure(stmt.proc)
            saved = {formal: self._env.get(formal) for formal in proc.formals}
            # every argument in the caller's bindings, then all bound at once
            args = [self._eval_int(arg) for arg in stmt.args]
            self._env.update(zip(proc.formals, args))
            self.exec_body(proc.body)
            for formal, old in saved.items():
                if old is None:
                    self._env.pop(formal, None)
                else:
                    self._env[formal] = old
        else:
            raise ValidationError(f"cannot execute {type(stmt).__name__}")

    def _in_intervals(self, guard: Guard, value: int) -> bool:
        for iv in guard.intervals:
            lo = iv.lower.evaluate(self._env)
            hi = iv.upper.evaluate(self._env)
            if lo <= value <= hi:
                return True
        return False

    # -- expression evaluation ----------------------------------------------

    def eval(self, expr: Expr) -> float:
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, (Param, IndexVar)):
            return float(self._env[expr.name])
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

    def _eval_int(self, expr: Expr) -> int:
        value = expr.affine().evaluate(self._env)
        if value.denominator != 1:
            raise ValidationError(f"non-integral bound {expr} = {value}")
        return value

    def _subscripts(self, ref: ArrayRef) -> tuple[int, ...]:
        extents = self._extent_cache[ref.array]
        out = []
        for k, sub in enumerate(ref.indices):
            idx = self._eval_int(sub)
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
