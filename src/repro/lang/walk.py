"""One execution order for the IR: the walk every instance-level pass shares.

:class:`Walk` visits a program's statement instances in program order at
concrete parameter values: loops bind their index over the bounds they
evaluate on entry (and restore a caller's index of the same name on
exit), guards test interval membership, calls evaluate every argument in
the caller's bindings and then bind the formals; :meth:`Walk.walk_span`
walks a chunk of one loop's iterations.  A subclass supplies
:meth:`Walk.assign`, what one assignment instance does: the value
interpreter, the legality snapshot, the trace oracle and coherence's
witness lookup are such subclasses.

Every subscript, loop bound, call argument and guard-interval bound is
folded once per AST node into the tracers' record ``(const, ((name,
coeff), ...))`` at the walk's parameters (a formal named like a parameter
stays free), and evaluated per instance in ``int`` arithmetic; a value
that is not an integer is a :class:`~repro.lang.ValidationError`, the
tracers' "non-integral" rule.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .affine import Affine
from .errors import ValidationError
from .expr import Expr
from .program import Program
from .stmt import Assign, CallStmt, Guard, Loop, Stmt

#: a subscript, bound or argument folded at the walk's parameters: the
#: node (for the error message), then the tracers' record ``(const,
#: ((name, coeff), ...))`` over the names left free, exact (a coefficient
#: or constant is a ``Fraction`` only when genuinely fractional)
Record = tuple[object, int | Fraction, tuple[tuple[str, int | Fraction], ...]]


class Walk:
    """Walks ``program``'s statement instances at ``params``.

    ``env`` holds the parameters and the loop indices and formals bound
    at the current instance; ``iters`` lists the loop-index bindings,
    outermost first.  Records are keyed by node identity: the program
    outlives the walk.
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.program = program
        self.env: dict[str, int] = {k: int(v) for k, v in params.items()}
        # a formal shadows a parameter of its name inside the procedure
        formals = {f for proc in program.procedures for f in proc.formals}
        self.fixed = {k: v for k, v in self.env.items() if k not in formals}
        self.iters: list[tuple[str, int]] = []
        self.records: dict[int, list[Record]] = {}

    def run(self, steps: int = 1) -> None:
        """Walk the body ``steps`` times (the paper's time-step loop)."""
        for _ in range(steps):
            self.walk_body(self.program.body)

    def assign(self, stmt: Assign) -> None:
        """One instance of ``stmt``; the subclass's whole job."""
        raise NotImplementedError

    # -- folding and evaluation -----------------------------------------------

    def fold(
        self, node: object, forms: Iterable[Union[Expr, Affine]]
    ) -> list[Record]:
        """The records of ``forms``, the subscripts or bounds of ``node``."""
        records = self.records.get(id(node))
        if records is None:
            records = self.records[id(node)] = [self.record(f) for f in forms]
        return records

    def record(self, form: Union[Expr, Affine]) -> Record:
        affine = form if isinstance(form, Affine) else form.affine()
        folded = affine.substitute(self.fixed)
        return (form, folded.const, folded.coeffs)

    def values(self, records: list[Record]) -> list[int]:
        env = self.env
        out = []
        for form, value, terms in records:
            for name, coeff in terms:
                value += coeff * env[name]
            if value.__class__ is not int:
                if value.denominator != 1:
                    raise ValidationError(
                        f"non-integral subscript/bound {form} = {value}"
                    )
                value = int(value)
            out.append(value)
        return out

    # -- statements -----------------------------------------------------------

    def walk_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: Stmt) -> None:
        env = self.env
        if isinstance(stmt, Assign):
            self.assign(stmt)
        elif isinstance(stmt, Loop):
            lo, hi = self.values(self.fold(stmt, (stmt.lower, stmt.upper)))
            self.walk_span(stmt, lo, hi)
        elif isinstance(stmt, Guard):
            value = env.get(stmt.index)
            if value is None:
                raise ValidationError(f"guard index {stmt.index!r} unbound")
            bounds = self.values(self.fold(stmt, (
                b for iv in stmt.intervals for b in (iv.lower, iv.upper)
            )))
            inside = any(
                lo <= value <= hi for lo, hi in zip(bounds[::2], bounds[1::2])
            )
            self.walk_body(stmt.body if inside else stmt.else_body)
        elif isinstance(stmt, CallStmt):
            proc = self.program.procedure(stmt.proc)
            saved = [(formal, env.get(formal)) for formal in proc.formals]
            # every argument in the caller's bindings, then all bound at once
            env.update(zip(proc.formals, self.values(self.fold(stmt, stmt.args))))
            self.walk_body(proc.body)
            for formal, old in saved:
                _rebind(env, formal, old)
        else:
            raise ValidationError(f"cannot walk {type(stmt).__name__}")

    def walk_span(self, loop: Loop, lo: int, hi: int) -> None:
        """``loop``'s iterations ``lo..hi``, the bounds it evaluates on
        entry or a chunk of them: a walker that cuts a loop into chunks
        walks the loop itself, never a copy with other bounds (records
        are keyed by node identity)."""
        env = self.env
        outer = env.get(loop.index)  # a caller's loop of the same name
        for i in range(lo, hi + 1):
            env[loop.index] = i
            self.iters.append((loop.index, i))
            self.walk_body(loop.body)
            self.iters.pop()
        _rebind(env, loop.index, outer)


def _rebind(env: dict[str, int], name: str, old: "int | None") -> None:
    """Restore ``name``'s binding from before a loop or call bound it."""
    if old is None:
        env.pop(name, None)
    else:
        env[name] = old
