"""Static IR verification ("lint") over :class:`~repro.lang.Program`.

Four layers of checks, all symbolic (no execution):

1. **Structural invariants** — the collect-all form of
   :func:`repro.lang.validate.validation_issues` (undeclared names, arity,
   affine subscripts, index shadowing, guard scoping).
2. **Loop-bound sanity** — loops and guard intervals that provably never
   execute under the parameter assumptions (``upper < lower``), and
   non-integral affine bounds.
3. **Subscript-in-bounds** — for every array reference, the symbolic
   range of each affine subscript over the enclosing loop bounds (guard
   intervals narrow the range, like the footprint analysis of
   :mod:`repro.analysis.access`) is compared against ``1 .. extent``;
   provable underflow/overflow is an error.  Indeterminate comparisons
   stay silent — the checker is conservative in what it *reports*, never
   in what it certifies.
4. **Def-use hygiene** — scalars read but never assigned (they read the
   interpreter's initial zero), scalars assigned but never read (dead
   state: scalars are not program outputs), arrays never referenced, and
   array regions whose reads are provably disjoint from every written
   region (they only ever observe initial values).

Findings come back in a :class:`DiagnosticBag`; ``lint_program`` never
raises, so callers choose whether errors are fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ..lang import (
    Affine,
    ArrayRef,
    Assign,
    Assumptions,
    CallStmt,
    DEFAULT_PARAM_MIN,
    Guard,
    Loop,
    NotAffineError,
    Program,
    ScalarRef,
    Stmt,
    validation_issues,
)
from .diagnostics import DiagnosticBag


@dataclass(frozen=True)
class IndexRange:
    """The affine [lo, hi] an in-scope loop index ranges over."""

    name: str
    lo: Affine
    hi: Affine


def affine_range(
    form: Affine, scope: Sequence[IndexRange]
) -> tuple[Affine, Affine]:
    """Symbolic [min, max] of ``form`` over the in-scope index ranges.

    Substitutes index variables innermost-first, picking each index's
    lower or upper bound by the sign of its coefficient (classic interval
    arithmetic over affine forms).  Bounds of inner indices may mention
    outer indices (triangular loops); those are resolved by later
    substitutions.  The result mentions only program parameters.
    """
    lo, hi = form, form
    for rng in reversed(scope):  # innermost index first
        c_lo = lo.coeff(rng.name)
        if c_lo != 0:
            lo = lo.substitute({rng.name: rng.lo if c_lo > 0 else rng.hi})
        c_hi = hi.coeff(rng.name)
        if c_hi != 0:
            hi = hi.substitute({rng.name: rng.hi if c_hi > 0 else rng.lo})
    return lo, hi


class _Linter:
    def __init__(self, program: Program, assume: Assumptions) -> None:
        self.program = program
        self.assume = assume
        self.bag = DiagnosticBag()
        self.scope: list[IndexRange] = []
        self.arrays = {a.name: a for a in program.arrays}
        # def-use bookkeeping (walk order approximates execution order)
        self.scalar_reads: dict[str, str] = {}  # name -> first location
        self.scalar_writes: dict[str, str] = {}
        self.array_touched: set[str] = set()
        #: per array: list of per-dim (lo, hi) region hulls
        self.read_regions: dict[str, list[tuple[tuple[Affine, Affine], ...]]] = {}
        self.write_regions: dict[str, list[tuple[tuple[Affine, Affine], ...]]] = {}

    # -- per-reference checks -----------------------------------------------

    def check_ref(self, ref: ArrayRef, is_write: bool, where: str, stmt: str) -> None:
        decl = self.arrays.get(ref.array)
        if decl is None:
            return  # structural layer already reported it
        self.array_touched.add(ref.array)
        if len(ref.indices) != decl.ndim:
            return
        region: list[tuple[Affine, Affine]] = []
        extents = decl.extent_affines()
        for k, sub in enumerate(ref.indices):
            try:
                form = sub.affine()
            except NotAffineError:
                return  # structural layer already reported it
            lo, hi = affine_range(form, self.scope)
            region.append((lo, hi))
            if hi.compare(1, self.assume) == -1:
                self.bag.error(
                    "V101",
                    f"subscript {k} of {ref.array!r} is always "
                    f"{hi} < 1 (underflow)",
                    where=where,
                    stmt=stmt,
                    subscript=str(form),
                )
            elif lo.compare(1, self.assume) == -1:
                self.bag.error(
                    "V101",
                    f"subscript {k} of {ref.array!r} can reach "
                    f"{lo} < 1 (underflow)",
                    where=where,
                    stmt=stmt,
                    subscript=str(form),
                )
            if lo.compare(extents[k], self.assume) == 1:
                self.bag.error(
                    "V102",
                    f"subscript {k} of {ref.array!r} is always "
                    f"{lo} > extent {extents[k]} (overflow)",
                    where=where,
                    stmt=stmt,
                    subscript=str(form),
                )
            elif hi.compare(extents[k], self.assume) == 1:
                self.bag.error(
                    "V102",
                    f"subscript {k} of {ref.array!r} can reach "
                    f"{hi} > extent {extents[k]} (overflow)",
                    where=where,
                    stmt=stmt,
                    subscript=str(form),
                )
        target = self.write_regions if is_write else self.read_regions
        target.setdefault(ref.array, []).append(tuple(region))

    def note_expr(self, expr, where: str, stmt: str) -> None:
        """Record reads (arrays + scalars) appearing in an expression."""
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                self.check_ref(node, False, where, stmt)
            elif isinstance(node, ScalarRef):
                self.scalar_reads.setdefault(node.name, where)

    # -- statements -----------------------------------------------------------

    def check_stmt(self, stmt: Stmt, where: str) -> None:
        if isinstance(stmt, Assign):
            text = str(stmt)
            self.note_expr(stmt.expr, f"{where} rhs", text)
            if isinstance(stmt.target, ArrayRef):
                for sub in stmt.target.indices:
                    self.note_expr(sub, f"{where} lhs", text)
                self.check_ref(stmt.target, True, f"{where} lhs", text)
            else:
                self.scalar_writes.setdefault(stmt.target.name, where)
        elif isinstance(stmt, Loop):
            self.check_loop(stmt, where)
        elif isinstance(stmt, Guard):
            self.check_guard(stmt, where)
        elif isinstance(stmt, CallStmt):
            for a in stmt.args:
                self.note_expr(a, f"{where} arg", str(stmt))

    def check_loop(self, loop: Loop, where: str) -> None:
        try:
            lo = loop.lower.affine()
            hi = loop.upper.affine()
        except NotAffineError:
            return  # structural layer already reported it
        for name, form in (("lower", lo), ("upper", hi)):
            if any(c.denominator != 1 for _, c in form.coeffs) or (
                form.const.denominator != 1
            ):
                self.bag.warning(
                    "V103",
                    f"{name} bound {form} has fractional coefficients; "
                    "trip counts may be non-integral",
                    where=where,
                    stmt=str(loop),
                )
        if hi.compare(lo, self.assume) == -1:
            self.bag.warning(
                "V104",
                f"loop never executes: upper bound {hi} < lower bound {lo} "
                f"under the assumption params >= {self.assume.default}",
                where=where,
                stmt=str(loop),
            )
        self.scope.append(IndexRange(loop.index, lo, hi))
        for k, s in enumerate(loop.body):
            self.check_stmt(s, f"{where}/for {loop.index}[{k}]")
        self.scope.pop()

    def check_guard(self, guard: Guard, where: str) -> None:
        rng = next((r for r in self.scope if r.name == guard.index), None)
        narrowed = False
        for iv in guard.intervals:
            if iv.upper.compare(iv.lower, self.assume) == -1:
                self.bag.warning(
                    "V105",
                    f"guard interval [{iv.lower}:{iv.upper}] is empty",
                    where=where,
                    stmt=str(guard),
                )
            if rng is not None:
                if iv.upper.compare(rng.lo, self.assume) == -1 or (
                    iv.lower.compare(rng.hi, self.assume) == 1
                ):
                    self.bag.warning(
                        "V106",
                        f"guard interval [{iv.lower}:{iv.upper}] lies outside "
                        f"{guard.index}'s range [{rng.lo}:{rng.hi}]; "
                        "body never executes",
                        where=where,
                        stmt=str(guard),
                    )
        # a single interval narrows the index range inside the body to its
        # intersection with the loop's: per bound the tighter one where
        # the comparison is decided, the guard's where it is not
        if rng is not None and len(guard.intervals) == 1:
            iv = guard.intervals[0]
            lo = rng.lo if iv.lower.compare(rng.lo, self.assume) == -1 else iv.lower
            hi = rng.hi if iv.upper.compare(rng.hi, self.assume) == 1 else iv.upper
            k = self.scope.index(rng)
            self.scope[k] = IndexRange(guard.index, lo, hi)
            narrowed = True
        for k, s in enumerate(guard.body):
            self.check_stmt(s, f"{where}/when {guard.index}[{k}]")
        if narrowed:
            kk = next(
                i for i, r in enumerate(self.scope) if r.name == guard.index
            )
            self.scope[kk] = rng
        for k, s in enumerate(guard.else_body):
            self.check_stmt(s, f"{where}/else[{k}]")

    # -- whole-program def-use reports ----------------------------------------

    def _regions_overlap(
        self,
        a: tuple[tuple[Affine, Affine], ...],
        b: tuple[tuple[Affine, Affine], ...],
    ) -> bool:
        """Conservative overlap test: only a provable per-dim disjointness
        on some dimension makes two regions disjoint."""
        for (alo, ahi), (blo, bhi) in zip(a, b):
            if ahi.compare(blo, self.assume) == -1:
                return False
            if bhi.compare(alo, self.assume) == -1:
                return False
        return True

    def finish(self) -> None:
        for name, where in sorted(self.scalar_reads.items()):
            if name not in self.scalar_writes:
                self.bag.warning(
                    "V201",
                    f"scalar {name!r} is read but never assigned "
                    "(reads the initial zero)",
                    where=where,
                )
        for name, where in sorted(self.scalar_writes.items()):
            if name not in self.scalar_reads:
                self.bag.warning(
                    "V202",
                    f"scalar {name!r} is assigned but never read "
                    "(dead scalar: scalars are not program outputs)",
                    where=where,
                )
        for decl in self.program.arrays:
            if decl.name not in self.array_touched:
                self.bag.warning(
                    "V203", f"array {decl.name!r} is declared but never referenced"
                )
        for name, reads in sorted(self.read_regions.items()):
            writes = self.write_regions.get(name, [])
            if not writes:
                self.bag.info(
                    "V204",
                    f"array {name!r} is read-only (observes initial values only)",
                )
                continue
            for region in reads:
                if not any(self._regions_overlap(region, w) for w in writes):
                    spans = ", ".join(f"{lo}:{hi}" for lo, hi in region)
                    self.bag.info(
                        "V205",
                        f"reads of {name}[{spans}] are disjoint from every "
                        "written region (observe initial values only)",
                    )
                    break

    def run(self) -> DiagnosticBag:
        for issue in validation_issues(self.program):
            self.bag.add_issue(issue, code="V001")
        if self.bag.has_errors():
            # structurally broken: range/def-use layers would crash or lie
            return self.bag
        if self.program.procedures:
            self.bag.info(
                "V301",
                f"{len(self.program.procedures)} procedure(s) present; "
                "region analysis covers the inlined call sites only",
            )
        for k, stmt in enumerate(self.program.body):
            self.check_stmt(stmt, f"body[{k}]")
        self.finish()
        return self.bag


def lint_program(
    program: Program,
    assume: Union[int, Assumptions, None] = None,
) -> DiagnosticBag:
    """Run every static check over ``program``; returns the findings.

    ``assume`` supplies the parameter lower bound for symbolic
    comparisons (default: :data:`~repro.lang.DEFAULT_PARAM_MIN`, the same
    assumption the fusion legality tests use).
    """
    if assume is None:
        assume = Assumptions(default=DEFAULT_PARAM_MIN)
    elif isinstance(assume, int):
        assume = Assumptions(default=assume)
    return _Linter(program, assume).run()
