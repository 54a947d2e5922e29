"""Instance-level access snapshots: the evidence behind legality checks.

A :class:`Snapshot` records, for a program at small *concrete* parameter
values, every write instance each memory cell receives, in execution
order, together with

* the constant-folded **signature** of the assigned expression — a
  skeleton in which every numeric leaf (constants, parameters, loop
  indices) is folded away and every memory read is named by the cell it
  touches and the *write epoch* it observes;
* the list of ``(cell, epoch)`` reads the instance performs;
* the source text and iteration vector of the statement instance, for
  diagnostics.

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
evaluate array contents, only subscripts and bounds (exact rational
arithmetic, same as the interpreter's `_eval_int`).

Cells are canonicalized across array splitting: a split array's
:class:`~repro.lang.SliceOrigin` chain maps its cells back to cells of
the original declaration, so ``split_arrays`` output is comparable with
its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ..lang import (
    Affine,
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


@dataclass(frozen=True)
class WriteInstance:
    """One dynamic write to one cell."""

    stmt: str  #: source text of the assignment
    iters: tuple[tuple[str, int], ...]  #: loop-index bindings at the write
    sig: object  #: constant-folded expression skeleton (hashable)
    reads: tuple[tuple[Cell, int], ...]  #: (cell, epoch observed)

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


def _slice_chain(origin: Optional[SliceOrigin]) -> tuple[str, list[SliceOrigin]]:
    """Root array name + steps ordered origin-first (leaf split first)."""
    chain: list[SliceOrigin] = []
    step = origin
    while step is not None:
        chain.append(step)
        step = step.parent
    return chain[-1].name, chain


class _Walker:
    """Mirrors the interpreter's control flow without touching data."""

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.program = program
        self.env: dict[str, int] = {k: int(v) for k, v in params.items()}
        self.writes: dict[Cell, list[WriteInstance]] = {}
        self.iters: list[tuple[str, int]] = []
        # affine form per subscript / bound node, lowered once per walk
        # (the program outlives the walk, so node identity is a safe key)
        self.forms: dict[int, Affine] = {}
        # canonical cell mapping for split arrays: name -> (root, chain)
        self.canon: dict[str, tuple[str, list[SliceOrigin]]] = {}
        for decl in program.arrays:
            if decl.origin_slice is not None:
                self.canon[decl.name] = _slice_chain(decl.origin_slice)

    # -- cells ---------------------------------------------------------------

    def cell_of(self, ref: ArrayRef) -> Cell:
        idx = tuple(self.eval_int(sub) for sub in ref.indices)
        mapping = self.canon.get(ref.array)
        if mapping is None:
            return (ref.array, idx)
        root, chain = mapping
        out = list(idx)
        for step in chain:  # leaf split first: dims relative to parent shape
            out.insert(step.dim, step.index)
        return (root, tuple(out))

    def epoch_of(self, cell: Cell) -> int:
        return len(self.writes.get(cell, ())) - 1

    # -- evaluation -----------------------------------------------------------

    def eval_int(self, expr: Expr) -> int:
        form = self.forms.get(id(expr))
        if form is None:
            form = self.forms[id(expr)] = expr.affine()
        value = form.evaluate(self.env)
        if value.denominator != 1:
            raise ValidationError(f"non-integral subscript/bound {expr} = {value}")
        return value

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
            inst = WriteInstance(
                stmt=str(stmt),
                iters=tuple(self.iters),
                sig=sig,
                reads=tuple(reads),
            )
            self.writes.setdefault(cell, []).append(inst)
        elif isinstance(stmt, Loop):
            lo = self.eval_int(stmt.lower)
            hi = self.eval_int(stmt.upper)
            for i in range(lo, hi + 1):
                self.env[stmt.index] = i
                self.iters.append((stmt.index, i))
                self.walk_body(stmt.body)
                self.iters.pop()
            self.env.pop(stmt.index, None)
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
            saved: dict[str, Optional[int]] = {}
            for formal, arg in zip(proc.formals, stmt.args):
                saved[formal] = self.env.get(formal)
                self.env[formal] = self.eval_int(arg)
            self.walk_body(proc.body)
            for formal, old in saved.items():
                if old is None:
                    self.env.pop(formal, None)
                else:
                    self.env[formal] = old
        else:
            raise ValidationError(f"cannot snapshot {type(stmt).__name__}")


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
