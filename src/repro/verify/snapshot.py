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
evaluate array contents.  The instances come in the interpreter's own
order, from the same :class:`~repro.lang.Walk`, which evaluates
subscripts, bounds and call arguments for both.

Cells are canonicalized across array splitting: a split array's
:class:`~repro.lang.SliceOrigin` chain maps its cells back to cells of
the original declaration, so ``split_arrays`` output is comparable with
its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

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
    SliceOrigin,
    UnaryOp,
    ValidationError,
    Walk,
)
from ..lang.walk import Record

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


class _Walker(Walk):
    """The snapshot's domain on :class:`~repro.lang.Walk`: an
    assignment instance appends a :class:`WriteInstance` to its cell's
    chain, and no array value is ever touched."""

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        super().__init__(program, params)
        self.writes: dict[Cell, list[WriteInstance]] = {}
        self.cells: dict[int, tuple[str, list[Record]]] = {}
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

    def assign(self, stmt: Assign) -> None:
        reads: list[tuple[Cell, int]] = []
        sig = self.signature(stmt.expr, reads)
        if isinstance(stmt.target, ArrayRef):
            cell = self.cell_of(stmt.target)
        else:
            cell = scalar_cell(stmt.target.name)
        inst = WriteInstance(stmt, tuple(self.iters), sig, tuple(reads))
        self.writes.setdefault(cell, []).append(inst)

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
    walker.run(steps)
    return Snapshot(
        program_name=program.name,
        params={k: int(v) for k, v in params.items()},
        steps=steps,
        writes=walker.writes,
    )
