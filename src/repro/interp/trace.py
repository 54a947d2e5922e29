"""Memory access traces, and the Walk oracle that generates them.

An :class:`AccessTrace` is the common currency between the tracers, the
locality analyses, the reuse-driven execution study, and the cache
simulator.  It is a struct-of-arrays over numpy so multi-million
access traces stay compact and the analyses can vectorize.

Canonical element numbering
---------------------------
``elems[t]`` is the *column-major* linear index of the accessed element
within its array (first subscript fastest — Fortran order, matching the
paper).  This numbering is purely canonical: actual memory addresses are
produced later by composing the trace with a
:class:`repro.core.regroup.layout.Layout`, which is how data regrouping
changes cache behaviour without touching the trace.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from ..lang import AnalysisError, Assign, Program, Stmt, Walk, map_body
from ..lang.lowering import Fold, FoldedAssign, LoweredRef


@dataclass(frozen=True)
class RefInfo:
    """Static description of one array reference in the source."""

    ref_id: int
    stmt_id: int
    array: str
    is_write: bool
    text: str

    @staticmethod
    def of(ref: LoweredRef) -> "RefInfo":
        """The row of a reference of the program's lowering."""
        return RefInfo(ref.ref_id, ref.stmt_id, ref.ref.array, ref.is_write, str(ref.ref))


@dataclass
class AccessTrace:
    """A sequence of memory accesses in execution order."""

    array_names: tuple[str, ...]
    array_ids: np.ndarray  # int32, index into array_names
    elems: np.ndarray  # int64, canonical column-major element index
    writes: np.ndarray  # bool
    ref_ids: np.ndarray  # int32, static reference ids
    instr_ids: Optional[np.ndarray] = None  # int64, dynamic instruction ids
    refs: tuple[RefInfo, ...] = ()
    array_sizes: tuple[int, ...] = ()  # elements per array, aligned with names

    def __len__(self) -> int:
        return len(self.elems)

    def global_keys(self) -> np.ndarray:
        """A single int64 key per access, unique per (array, element).

        Arrays are laid out back-to-back in canonical element order, so the
        key doubles as the address under the identity layout.
        """
        bases = np.zeros(len(self.array_names) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self.array_sizes, dtype=np.int64), out=bases[1:])
        return bases[self.array_ids] + self.elems

    def slice(self, start: int, stop: int) -> "AccessTrace":
        return AccessTrace(
            array_names=self.array_names,
            array_ids=self.array_ids[start:stop],
            elems=self.elems[start:stop],
            writes=self.writes[start:stop],
            ref_ids=self.ref_ids[start:stop],
            instr_ids=None if self.instr_ids is None else self.instr_ids[start:stop],
            refs=self.refs,
            array_sizes=self.array_sizes,
        )

    def reordered(self, order: np.ndarray) -> "AccessTrace":
        """A new trace with accesses permuted into ``order``."""
        return AccessTrace(
            array_names=self.array_names,
            array_ids=self.array_ids[order],
            elems=self.elems[order],
            writes=self.writes[order],
            ref_ids=self.ref_ids[order],
            instr_ids=None if self.instr_ids is None else self.instr_ids[order],
            refs=self.refs,
            array_sizes=self.array_sizes,
        )

    def iter_accesses(self) -> Iterator[tuple[str, int, bool]]:
        """Slow row-wise view, for tests and tiny examples only."""
        for aid, elem, wr in zip(self.array_ids, self.elems, self.writes):
            yield self.array_names[aid], int(elem), bool(wr)


_COLUMNS = ("array_ids", "elems", "writes", "ref_ids", "instr_ids")


def concat_traces(traces: Sequence[AccessTrace]) -> AccessTrace:
    """Consecutive pieces of one program's trace, as one trace: every
    column concatenated (the one piece itself when there is only one)."""
    first = traces[0]
    if len(traces) == 1:
        return first

    def cat(column: str) -> Optional[np.ndarray]:
        if getattr(first, column) is None:
            return None
        return np.concatenate([getattr(t, column) for t in traces])

    return replace(first, **{c: cat(c) for c in _COLUMNS})


class TraceWalk(Walk):
    """The Walk oracle: :func:`trace_program` as a :class:`~repro.lang.Walk`.

    The order, the loop bounds and the guards are the Walk's, so the
    trace follows the interpreter instance by instance.  An assignment
    instance records its statement and the loop indices its references
    read; their address records and ref ids come from the fold the
    codegen tracer reads (:class:`~repro.lang.lowering.Fold`), keyed by
    the assignment's identity, so each assignment object must occur once
    (:func:`_distinct`).  :meth:`trace` evaluates the records, derives
    the other columns and checks the bounds in numpy, statement by
    statement.
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        program = _distinct(program)
        self.folding = Fold(program, params)
        super().__init__(program, self.folding.params)
        #: per assignment object: its statement and the indices it reads
        self.plan = {
            key: (node.stmt_id, _indices(node))
            for key, node in self.folding.assigns.items()
        }
        self.stmts: list[int] = []  # the statement of every instance
        self.indices: list[int] = []  # and the values of the indices it reads

    def assign(self, stmt: Assign) -> None:
        stmt_id, names = self.plan[id(stmt)]
        self.stmts.append(stmt_id)
        self.indices.extend(map(self.env.__getitem__, names))

    def trace(self, steps: int, with_instr: bool) -> AccessTrace:
        """The accesses of the instances walked so far, repeated ``steps``
        times: a statement's accesses are a matrix, a row per instance
        and a column per reference, placed at the instances' offsets."""
        fold, refs = self.folding, self.folding.refs
        nodes = sorted(fold.assigns.values(), key=lambda node: node.stmt_id)
        stmts = np.tile(np.asarray(self.stmts, np.int64), steps)
        values = np.tile(np.asarray(self.indices, np.int64), steps)
        counts = np.asarray([len(node.refs) for node in nodes], np.int64)[stmts]
        widths = np.asarray([len(_indices(node)) for node in nodes], np.int64)[stmts]
        starts, reads = np.cumsum(counts) - counts, np.cumsum(widths) - widths
        elems = np.empty(int(counts.sum()), np.int64)
        ref_ids = np.empty(len(elems), np.int32)
        order = np.argsort(stmts, kind="stable")
        cuts = np.searchsorted(stmts[order], np.arange(len(nodes) + 1))
        for node, lo, hi in zip(nodes, cuts, cuts[1:]):
            rows = order[lo:hi]
            names = _indices(node)
            index = values[reads[rows, None] + np.arange(len(names))]
            for k, ref in enumerate(node.refs):
                const, terms = ref.linform
                column = np.full(len(rows), const, np.int64)
                for name, coeff in terms:
                    column += coeff * index[:, names.index(name)]
                elems[starts[rows] + k] = column
                ref_ids[starts[rows] + k] = ref.ref_id
        array_ids = np.asarray([fold.array_ids[r.ref.array] for r in refs], np.int32)[ref_ids]
        sizes = np.asarray(fold.sizes, np.int64)
        bad = np.flatnonzero((elems < 0) | (elems >= sizes[array_ids]))
        if len(bad):
            t = bad[0]
            raise AnalysisError(
                f"out-of-bounds access: array #{array_ids[t]} element "
                f"{elems[t]} (size {sizes[array_ids[t]]}) by `{refs[ref_ids[t]].ref}`"
            )
        return AccessTrace(
            array_names=tuple(a.name for a in self.program.arrays),
            array_ids=array_ids,
            elems=elems,
            writes=np.asarray([r.is_write for r in refs], bool)[ref_ids],
            ref_ids=ref_ids,
            instr_ids=np.repeat(np.arange(len(stmts)), counts) if with_instr else None,
            refs=tuple(RefInfo.of(r) for r in refs),
            array_sizes=tuple(fold.sizes),
        )


def _indices(node: FoldedAssign) -> tuple[str, ...]:
    """The loop indices the address records of ``node`` read."""
    return tuple(sorted({name for ref in node.refs for name, _ in ref.linform[1]}))


def _distinct(program: Program) -> Program:
    """``program`` with a copy of each assignment object in place of its
    every occurrence after the first: the lowering numbers occurrences
    apart, the fold keys them by identity."""
    seen: set[int] = set()

    def visit(stmt: Stmt) -> list[Stmt]:
        if not isinstance(stmt, Assign):
            return [stmt.map_bodies(visit)]
        if id(stmt) in seen:
            return [copy.copy(stmt)]
        seen.add(id(stmt))
        return [stmt]

    return program.with_body(map_body(program.body, visit))


def trace_program(
    program: Program,
    params: Mapping[str, int],
    steps: int = 1,
    with_instr: bool = False,
) -> AccessTrace:
    """The memory access trace of ``program`` at the given size, walked
    instance by instance (:class:`TraceWalk`): the oracle the codegen
    tracer (:func:`repro.codegen.trace_program`) is proven against.

    ``steps`` repeats the whole body, modelling the outer time-step loop
    of the paper's iterative applications.  ``with_instr=True``
    additionally records a dynamic instruction id per access, one per
    assignment instance (needed by the reuse-driven-execution study).
    """
    walk = TraceWalk(program, params)
    walk.run()  # every step walks the same instances
    return walk.trace(steps, with_instr)
