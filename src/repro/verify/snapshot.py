"""Instance-level access snapshots: the evidence behind legality checks.

A :class:`Snapshot` records, for a program at small *concrete* parameter
values, every write instance each memory cell receives, in execution
order, together with

* the constant-folded **signature** of the assigned expression — a
  skeleton in which every numeric leaf (constants, parameters, loop
  indices) is folded away and every memory read is named by the cell it
  touches and the *write epoch* it observes;
* the list of ``(cell, epoch)`` reads the instance performs;
* the assignment (its text is rendered only when a diagnostic reads
  it) and the iteration vector of the statement instance.

The ``epoch`` of a read is the number of writes the cell has received so
far (0-based index of the producing write; ``-1`` means the initial
value).  Two snapshots with identical per-cell write chains therefore
agree on every flow (read-after-write), anti (write-after-read), and
output (write-after-write) dependence — not as abstract direction
vectors but instance by instance — which is what the legality checker
in :mod:`repro.verify.legality` certifies.

Signatures are substitution-invariant on purpose: after unrolling, index
``i`` becomes a literal, but ``IndexVar`` leaves fold to their concrete
value either way, so the unrolled instance matches the original one.
No floating-point program semantics are involved — snapshots never
evaluate array contents, only subscripts, bounds and call arguments.
Each of those is folded once per AST node at the snapshot's parameters
into the tracers' record ``(const, ((name, coeff), ...))`` and evaluated
per instance in ``int`` arithmetic; a value that is not an integer is a
:class:`~repro.lang.ValidationError`, as in the interpreter.

Cells are canonicalized across array splitting: a split array's
:class:`~repro.lang.SliceOrigin` chain maps its cells back to cells of
the original declaration, so ``split_arrays`` output is comparable with
its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

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
    SliceOrigin,
    Stmt,
    UnaryOp,
    ValidationError,
)

#: identity of one memory location: (array name, 1-based index tuple);
#: scalars use ("$scalar:<name>", ()) so both live in one namespace
Cell = tuple[str, tuple[int, ...]]

SCALAR_CELL_PREFIX = "$scalar:"


def scalar_cell(name: str) -> Cell:
    return (SCALAR_CELL_PREFIX + name, ())


def is_scalar_cell(cell: Cell) -> bool:
    return cell[0].startswith(SCALAR_CELL_PREFIX)


def format_cell(cell: Cell) -> str:
    name, idx = cell
    if is_scalar_cell(cell):
        return name[len(SCALAR_CELL_PREFIX):]
    return f"{name}[{', '.join(str(i) for i in idx)}]"


class WriteInstance(NamedTuple):
    """One dynamic write to one cell."""

    assign: Assign  #: the assignment; rendered only when a diagnostic asks
    iters: tuple[tuple[str, int], ...]  #: loop-index bindings at the write
    sig: object  #: constant-folded expression skeleton (hashable)
    reads: tuple[tuple[Cell, int], ...]  #: (cell, epoch observed)

    @property
    def stmt(self) -> str:
        """Source text of the assignment."""
        return str(self.assign)

    def location(self) -> str:
        if not self.iters:
            return self.stmt
        at = ", ".join(f"{n}={v}" for n, v in self.iters)
        return f"{self.stmt}  @ {at}"


@dataclass
class Snapshot:
    """Per-cell write chains of one program at concrete parameters."""

    program_name: str
    params: dict[str, int]
    steps: int
    writes: dict[Cell, list[WriteInstance]] = field(default_factory=dict)

    def cells(self) -> set[Cell]:
        return set(self.writes)

    def write_count(self) -> int:
        return sum(len(chain) for chain in self.writes.values())


#: a subscript, bound or argument folded at the walk's parameters: the
#: node (for the error message), then the tracers' record ``(const,
#: ((name, coeff), ...))`` over the names left free, exact (a coefficient
#: or constant is a ``Fraction`` only when genuinely fractional)
_Record = tuple[object, "int | Fraction", tuple[tuple[str, "int | Fraction"], ...]]


class _Walker:
    """Mirrors the interpreter's control flow without touching data.

    Every subscript, loop bound and call argument is folded once per AST
    node into a :data:`_Record` (the program outlives the walk, so node
    identity is a safe key); an instance evaluates it with ``int``
    arithmetic.
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.program = program
        self.env: dict[str, int] = {k: int(v) for k, v in params.items()}
        # a formal shadows a parameter of its name inside the procedure
        formals = {f for proc in program.procedures for f in proc.formals}
        self.fixed = {k: v for k, v in self.env.items() if k not in formals}
        self.writes: dict[Cell, list[WriteInstance]] = {}
        self.iters: list[tuple[str, int]] = []
        self.records: dict[int, list[_Record]] = {}
        self.cells: dict[int, tuple[str, list[_Record]]] = {}
        # split arrays: the root declaration's name, and the splits that
        # removed a dimension each, leaf split first
        self.canon: dict[str, tuple[str, list[SliceOrigin]]] = {}
        for decl in program.arrays:
            chain, step = [], decl.origin_slice
            while step is not None:
                chain.append(step)
                step = step.parent
            if chain:
                self.canon[decl.name] = (chain[-1].name, chain)

    # -- folding and evaluation -----------------------------------------------

    def record(self, expr: Expr) -> _Record:
        form = expr.affine().substitute(self.fixed)
        return (expr, form.const, form.coeffs)

    def fold(self, node: Stmt, exprs: Sequence[Expr]) -> list[_Record]:
        """The records of ``exprs``, the bounds or arguments of ``node``."""
        records = self.records.get(id(node))
        if records is None:
            records = self.records[id(node)] = [self.record(e) for e in exprs]
        return records

    def values(self, records: list[_Record]) -> list[int]:
        env = self.env
        out = []
        for expr, value, terms in records:
            for name, coeff in terms:
                value += coeff * env[name]
            if value.__class__ is not int:
                if value.denominator != 1:
                    raise ValidationError(
                        f"non-integral subscript/bound {expr} = {value}"
                    )
                value = int(value)
            out.append(value)
        return out

    def cell_of(self, ref: ArrayRef) -> Cell:
        folded = self.cells.get(id(ref))
        if folded is None:
            # a split array's cell is its root's: the slice indices its
            # splits removed come back as constant records
            records = [self.record(sub) for sub in ref.indices]
            root, chain = self.canon.get(ref.array, (ref.array, ()))
            for step in chain:
                records.insert(step.dim, (None, step.index, ()))
            folded = self.cells[id(ref)] = (root, records)
        root, records = folded
        return (root, tuple(self.values(records)))

    def epoch_of(self, cell: Cell) -> int:
        return len(self.writes.get(cell, ())) - 1

    def signature(
        self, expr: Expr, reads: list[tuple[Cell, int]]
    ) -> object:
        """Constant-folded skeleton; appends (cell, epoch) reads in order."""
        if isinstance(expr, Const):
            return ("c", Fraction(expr.value))
        if isinstance(expr, (Param, IndexVar)):
            return ("c", Fraction(self.env[expr.name]))
        if isinstance(expr, ScalarRef):
            cell = scalar_cell(expr.name)
            read = (cell, self.epoch_of(cell))
            reads.append(read)
            return ("r",) + read
        if isinstance(expr, ArrayRef):
            cell = self.cell_of(expr)
            read = (cell, self.epoch_of(cell))
            reads.append(read)
            return ("r",) + read
        if isinstance(expr, BinOp):
            lhs = self.signature(expr.left, reads)
            rhs = self.signature(expr.right, reads)
            if lhs[0] == "c" and rhs[0] == "c":
                try:
                    return ("c", _fold(expr.op, lhs[1], rhs[1]))
                except ZeroDivisionError:
                    pass
            return ("b", expr.op, lhs, rhs)
        if isinstance(expr, UnaryOp):
            operand = self.signature(expr.operand, reads)
            if operand[0] == "c":
                return ("c", -operand[1])
            return ("u", operand)
        if isinstance(expr, Call):
            return ("f", expr.func) + tuple(
                self.signature(a, reads) for a in expr.args
            )
        raise ValidationError(f"cannot snapshot expression {expr!r}")

    # -- statements -----------------------------------------------------------

    def walk_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            reads: list[tuple[Cell, int]] = []
            sig = self.signature(stmt.expr, reads)
            if isinstance(stmt.target, ArrayRef):
                cell = self.cell_of(stmt.target)
            else:
                cell = scalar_cell(stmt.target.name)
            inst = WriteInstance(stmt, tuple(self.iters), sig, tuple(reads))
            self.writes.setdefault(cell, []).append(inst)
        elif isinstance(stmt, Loop):
            lo, hi = self.values(self.fold(stmt, (stmt.lower, stmt.upper)))
            outer = self.env.get(stmt.index)  # a caller's loop of the same name
            for i in range(lo, hi + 1):
                self.env[stmt.index] = i
                self.iters.append((stmt.index, i))
                self.walk_body(stmt.body)
                self.iters.pop()
            _rebind(self.env, stmt.index, outer)
        elif isinstance(stmt, Guard):
            value = self.env.get(stmt.index)
            if value is None:
                raise ValidationError(f"guard index {stmt.index!r} unbound")
            if any(
                iv.lower.evaluate(self.env) <= value <= iv.upper.evaluate(self.env)
                for iv in stmt.intervals
            ):
                self.walk_body(stmt.body)
            else:
                self.walk_body(stmt.else_body)
        elif isinstance(stmt, CallStmt):
            proc = self.program.procedure(stmt.proc)
            saved = {formal: self.env.get(formal) for formal in proc.formals}
            args = self.values(self.fold(stmt, stmt.args))
            self.env.update(zip(proc.formals, args))
            self.walk_body(proc.body)
            for formal, old in saved.items():
                _rebind(self.env, formal, old)
        else:
            raise ValidationError(f"cannot snapshot {type(stmt).__name__}")


def _rebind(env: dict[str, int], name: str, old: Optional[int]) -> None:
    """Restore ``name``'s binding from before a loop or call bound it."""
    if old is None:
        env.pop(name, None)
    else:
        env[name] = old


def _fold(op: str, lhs: Fraction, rhs: Fraction) -> Fraction:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return lhs / rhs
    raise ValidationError(f"unknown operator {op!r}")


#: parameter value used when the caller does not pin one; big enough that
#: alignment shifts and peel loops have interior iterations to act on,
#: small enough that snapshots of 3-D programs stay cheap
DEFAULT_VERIFY_PARAM = 8


def snapshot_program(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    steps: int = 1,
) -> Snapshot:
    """Record the per-cell write chains of ``program``.

    ``params`` defaults to :data:`DEFAULT_VERIFY_PARAM` for every program
    parameter.  ``steps`` repeats the body like the interpreter's
    time-step loop, exposing cross-step dependences.
    """
    if params is None:
        params = {name: DEFAULT_VERIFY_PARAM for name in program.params}
    walker = _Walker(program, params)
    for _ in range(steps):
        walker.walk_body(program.body)
    return Snapshot(
        program_name=program.name,
        params={k: int(v) for k, v in params.items()},
        steps=steps,
        writes=walker.writes,
    )
