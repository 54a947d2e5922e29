"""Static parallelism analysis: DOALL / reduction / serial per loop axis.

For every loop axis in a program this module decides whether the axis's
iterations ("lanes") can run concurrently, by solving the loop-carried
dependence equations over a folded integer-affine access model (paper
§3; Ding & Kennedy's fusion legality is the *transform* side of the
same dependence information).  Verdicts:

``doall``
    no two distinct lanes can touch the same array element with at
    least one write — the axis is parallel as-is;
``reduction``
    the only cross-lane conflicts come from accumulation statements
    (``A[s] = A[s] op e`` / ``s = s op e`` with ``op`` associative), so
    the axis parallelizes with a privatized accumulator;
``serial``
    a genuine race exists, and the verdict carries a concrete
    :class:`RaceWitness` — two iteration vectors and the pair of
    references that collide on one element;
``unknown``
    the nest is outside the affine subset and too large to check
    concretely (never the case for the study programs).

Two precision tiers cooperate.  Small iteration spaces (bounded by
:data:`CONCRETE_CAP` accesses) are decided by *exhaustive enumeration* that
evaluates real bounds and guards — exact even for triangular nests, and
the tier the property-based oracle exercises.  Larger spaces use the
shared :mod:`.dependence_test`: the conservative interval+gcd screen
(:func:`~.dependence_test.lane_conflict`) filters pairs, then the exact
:func:`~.dependence_test.solve_sum` backtracker either produces a
witness, *overturns* the conservative screen with an infeasibility
proof, or runs out of budget (witness ``None``, marked inexact).  Both
read one set of cross-lane terms, :func:`~.dependence_test.lane_terms`.
Each axis is collected once (:class:`_Collector`), and one rule
(:func:`_assign_accesses`) lists an assignment's accesses for both tiers.

Layering: depends on ``lang`` and ``obs`` only — element numbering
reproduces the tracer's column-major linearization locally so nothing
here imports the interpreter or the codegen backend.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

from ..lang import (
    Affine,
    AnalysisError,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    CallStmt,
    Expr,
    Guard,
    Loop,
    NotAffineError,
    Program,
    ScalarRef,
    Scope,
    Stmt,
    UnaryOp,
)
from ..lang.lowering import linearize
from ..lang.scope import Range
from ..obs import metrics, span
from .dependence_test import lane_conflict, lane_terms, solve_sum

#: iteration spaces up to this many accesses are classified exhaustively
CONCRETE_CAP = 200_000

#: cap on lane-distance values tried by the symbolic witness search
MAX_WITNESS_DELTAS = 4096

#: params left unbound by the caller are pinned to this (small but
#: non-degenerate) extent, mirroring the golden-test sizes
DEFAULT_PARAM = 16

#: scalars are modeled as one-element pseudo-arrays under this prefix
SCALAR_PREFIX = "$"

VERDICTS = ("doall", "reduction", "serial", "unknown")


class _Unsupported(Exception):
    """A nest outside the integer-affine subset (the message says why)."""


# -- result types ------------------------------------------------------------


@dataclass(frozen=True)
class RaceWitness:
    """A concrete pair of conflicting iterations of one loop axis.

    ``env_a`` / ``env_b`` bind, under their source names, the axis, the
    loops enclosing it (on which they agree) and the loops enclosing each
    reference (independent per side) — each reference's own iteration;
    ``element`` is the linearized column-major element index the two
    references both touch.  ``exact`` is ``True`` when the pair was
    validated against the real (possibly triangular, guarded) bounds;
    a ``False`` witness lives in the rectangular hull approximation.
    """

    axis: str
    iter_a: int
    iter_b: int
    array: str
    element: int
    ref_a: str
    ref_b: str
    write_a: bool
    write_b: bool
    env_a: tuple[tuple[str, int], ...]
    env_b: tuple[tuple[str, int], ...]
    exact: bool = True

    def describe(self) -> str:
        ea = ", ".join(f"{n}={v}" for n, v in self.env_a)
        eb = ", ".join(f"{n}={v}" for n, v in self.env_b)
        kind = (
            "write/write" if self.write_a and self.write_b
            else "read/write" if self.write_b else "write/read"
        )
        where = (
            f"scalar {self.array[len(SCALAR_PREFIX):]!r}"
            if self.array.startswith(SCALAR_PREFIX)
            else f"{self.array}[elem {self.element}]"
        )
        mark = "" if self.exact else " (hull approximation)"
        return (
            f"{self.axis}={self.iter_a} vs {self.axis}={self.iter_b}: "
            f"{kind} on {where} — {self.ref_a} @({ea}) / "
            f"{self.ref_b} @({eb}){mark}"
        )


@dataclass(frozen=True)
class AxisVerdict:
    """The parallelism classification of one loop axis occurrence."""

    nest: int  # position of the enclosing top-level statement
    path: tuple[str, ...]  # enclosing loop indices, outermost first (incl. self)
    index: str
    depth: int
    verdict: str  # one of VERDICTS
    reason: str
    witness: Optional[RaceWitness] = None
    reduction_targets: tuple[str, ...] = ()
    exact: bool = True

    @property
    def parallel(self) -> bool:
        return self.verdict in ("doall", "reduction")

    def describe(self) -> str:
        where = ".".join(self.path)
        out = f"nest {self.nest} loop {where}: {self.verdict} ({self.reason})"
        if self.witness is not None:
            out += f"\n    witness: {self.witness.describe()}"
        return out


@dataclass(frozen=True)
class ParallelismProfile:
    """Every axis verdict of a program at concrete parameter values."""

    program_name: str
    params: tuple[tuple[str, int], ...]
    verdicts: tuple[AxisVerdict, ...]

    def by_verdict(self, verdict: str) -> tuple[AxisVerdict, ...]:
        return tuple(v for v in self.verdicts if v.verdict == verdict)

    @property
    def races(self) -> tuple[AxisVerdict, ...]:
        return self.by_verdict("serial")

    def parallel_nests(self) -> tuple[int, ...]:
        """Top-level nests whose outermost axis is DOALL or reduction."""
        return tuple(
            v.nest for v in self.verdicts if v.depth == 0 and v.parallel
        )

    def counts(self) -> dict[str, int]:
        out = {k: 0 for k in VERDICTS}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    def as_dict(self) -> dict:
        return {
            "program": self.program_name,
            "params": dict(self.params),
            "counts": self.counts(),
            "axes": [
                {
                    "nest": v.nest,
                    "path": list(v.path),
                    "index": v.index,
                    "depth": v.depth,
                    "verdict": v.verdict,
                    "reason": v.reason,
                    "exact": v.exact,
                    "reduction_targets": list(v.reduction_targets),
                    "witness": None if v.witness is None else {
                        **asdict(v.witness),
                        "env_a": dict(v.witness.env_a),
                        "env_b": dict(v.witness.env_b),
                    },
                }
                for v in self.verdicts
            ],
        }


# -- affine folding (Affine.fold; no interp/codegen import) ------------------

_Record = tuple[int, tuple[tuple[str, int], ...]]


def interval(
    form: Affine,
    params: Mapping[str, int],
    ranges: Mapping[str, tuple[int, int]],
) -> tuple[int, int]:
    """Concrete [min, max] of a bound form over widened variable ranges;
    :class:`~repro.lang.NotAffineError` outside the integer-affine subset."""
    lo, terms = form.fold(params)
    hi = lo
    for name, coeff in terms:
        rng = ranges.get(name)
        if rng is None:
            raise NotAffineError(f"unbound loop variable {name!r}")
        lo += min(coeff * rng[0], coeff * rng[1])
        hi += max(coeff * rng[0], coeff * rng[1])
    return lo, hi


def _linearize(
    ref: ArrayRef,
    strides: Mapping[str, tuple[int, ...]],
    params: Mapping[str, int],
) -> _Record:
    """The tracers' element record (:func:`repro.lang.lowering.linearize`),
    or :class:`_Unsupported` naming why there is none."""
    dims = strides.get(ref.array)
    if dims is None:
        raise _Unsupported(f"undeclared array {ref.array!r}")
    if len(ref.indices) != len(dims):
        raise _Unsupported(f"rank mismatch on {ref.array!r}")
    try:
        return linearize(ref, dims, params)
    except NotAffineError as exc:
        raise _Unsupported(str(exc)) from exc


# -- reference collection -----------------------------------------------------


@dataclass
class _Ref:
    """One (pseudo-)array reference folded to a linear element form."""

    array: str
    const: int
    terms: dict[str, int]
    is_write: bool
    text: str
    accum: Optional[int]  # statement number when part of an accumulation
    loops: tuple[str, ...]  # the axis-inner loop occurrences enclosing it


def _walk_expr(expr: Expr) -> Iterator[Expr]:
    """Pre-order leaves that read memory (ArrayRef / ScalarRef)."""
    if isinstance(expr, (ArrayRef, ScalarRef)):
        yield expr
    elif isinstance(expr, BinOp):
        yield from _walk_expr(expr.left)
        yield from _walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _walk_expr(expr.operand)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from _walk_expr(a)


def _accum_spine(stmt: Assign) -> Optional[Expr]:
    """The self-read of an accumulation ``T = T op e`` (else ``None``).

    ``op`` must be an associative spine (``+``/``-`` with the self-read
    appearing with positive sign, or a pure ``*`` chain), and the target
    must appear in the spine exactly once.
    """
    target = stmt.target

    def is_self(leaf: Expr) -> bool:
        if isinstance(target, ScalarRef):
            return isinstance(leaf, ScalarRef) and leaf.name == target.name
        return (
            isinstance(leaf, ArrayRef)
            and leaf.array == target.array
            and leaf.indices == target.indices
        )

    def additive(expr: Expr, sign: int) -> Optional[list[tuple[Expr, int]]]:
        if isinstance(expr, BinOp) and expr.op in ("+", "-"):
            left = additive(expr.left, sign)
            right = additive(expr.right, sign if expr.op == "+" else -sign)
            return None if left is None or right is None else left + right
        if isinstance(expr, UnaryOp) and expr.op == "-":
            return additive(expr.operand, -sign)
        return [(expr, sign)]

    def multiplicative(expr: Expr) -> list[Expr]:
        if isinstance(expr, BinOp) and expr.op == "*":
            return multiplicative(expr.left) + multiplicative(expr.right)
        return [expr]

    leaves = additive(stmt.expr, 1)
    if leaves is not None:
        selves = [(leaf, s) for leaf, s in leaves if is_self(leaf)]
        if len(selves) == 1 and selves[0][1] == 1:
            return selves[0][0]
    factors = multiplicative(stmt.expr)
    if len(factors) > 1:
        selves2 = [f for f in factors if is_self(f)]
        if len(selves2) == 1:
            return selves2[0]
    return None


def _assign_accesses(stmt: Assign) -> list[tuple[Expr, bool, bool]]:
    """An assignment's accesses in trace order, as ``(ref, is_write,
    accum)``: its reads in pre-order, then its target.  ``accum`` marks
    an accumulation's self-read and its target."""
    self_read = _accum_spine(stmt)
    accum = self_read is not None
    out = []
    for leaf in _walk_expr(stmt.expr):
        out.append((leaf, False, leaf is self_read))
        if leaf is self_read:
            self_read = None  # mark one read, should the node repeat
    out.append((stmt.target, True, accum))
    return out


def _fold(
    ranges: Sequence[Range],
    params: Mapping[str, int],
    known: Mapping[str, tuple[int, int]],
) -> dict[str, tuple[int, int]]:
    """``known`` plus the scope's ranges folded at ``params``: each index's
    concrete [min, max] over the indices enclosing it (an index whose
    bounds do not fold stays out)."""
    folded = dict(known)
    for r in ranges:
        try:
            folded[r.index] = (
                interval(r.lo, params, folded)[0], interval(r.hi, params, folded)[1]
            )
        except AnalysisError:
            folded.pop(r.index, None)
    return folded


class _Collector(Scope):
    """One axis's subtree flattened into folded references + inner ranges,
    read by the symbolic tier, the space estimate and the reduction targets.

    Inner loops are variables per *occurrence* (``j#0``, ``j#1``, ...),
    like :attr:`.model.LoopCtx.loop_id`: fusion's peeling leaves sibling
    loops that reuse an index name over different ranges.  Raises
    :class:`_Unsupported` outside the integer-affine subset.
    """

    def __init__(
        self,
        params: Mapping[str, int],
        strides: Mapping[str, tuple[int, ...]],
        loop: Loop,
        outer: Mapping[str, tuple[int, int]],
    ) -> None:
        super().__init__()
        self.params = params
        self.strides = strides
        self.outer = outer  # the ranges of the names enclosing the axis
        self.refs: list[_Ref] = []
        self.inner: dict[str, tuple[int, int]] = {}
        self.occurrence: dict[int, str] = {}  # id(inner loop) -> its variable
        self.exact = True  # False once a guard or context-widened bound appears
        self.per_lane = 0  # upper bound on accesses per axis iteration
        self._stmts = 0
        Scope.loop(self, loop)

    def reductions(self) -> tuple[str, ...]:
        """The accumulation targets, one per accumulating statement."""
        return tuple(
            r.text for r in self.refs if r.accum is not None and r.is_write
        )

    def assign(self, stmt: Assign) -> None:
        scope = {r.index: self.occurrence[id(r.loop)] for r in self.ranges[1:]}
        mult = 1
        for occurrence in scope.values():
            lo, hi = self.inner[occurrence]
            mult *= max(0, hi - lo + 1)
        stmt_id = self._stmts
        self._stmts += 1
        for ref, is_write, accum in _assign_accesses(stmt):
            if isinstance(ref, ScalarRef):
                array, const, terms = SCALAR_PREFIX + ref.name, 0, ()
            else:
                assert isinstance(ref, ArrayRef)
                const, terms = _linearize(ref, self.strides, self.params)
                array = ref.array
            self.refs.append(_Ref(
                array, const, {scope.get(n, n): c for n, c in terms},
                is_write, str(ref), stmt_id if accum else None,
                tuple(scope.values()),
            ))
            self.per_lane += mult

    def loop(self, loop: Loop) -> None:
        known = _fold(self.ranges, self.params, self.outer)
        try:
            lo_a, hi_a = loop.bounds_affine()
            lo_r = interval(lo_a, self.params, known)
            hi_r = interval(hi_a, self.params, known)
        except AnalysisError as exc:
            raise _Unsupported(str(exc)) from exc
        if lo_r[0] != lo_r[1] or hi_r[0] != hi_r[1]:
            self.exact = False  # context-dependent (e.g. triangular)
        occurrence = f"{loop.index}#{len(self.inner)}"
        self.inner[occurrence] = (lo_r[0], hi_r[1])
        self.occurrence[id(loop)] = occurrence
        super().loop(loop)

    def guard(self, guard: Guard) -> None:
        self.exact = False  # both branches folded in (hull)
        super().guard(guard)

    def call(self, stmt: CallStmt) -> None:
        raise _Unsupported(f"cannot analyze {type(stmt).__name__}")


# -- symbolic witness search --------------------------------------------------


def _deltas(span: int) -> Iterator[int]:
    """Candidate lane distances, smallest magnitude first: 1,-1,2,-2,...
    (at most :data:`MAX_WITNESS_DELTAS` of them)."""
    for k in range(1, min(span, MAX_WITNESS_DELTAS // 2) + 1):
        yield k
        yield -k


def _source_env(at: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    """A witness environment: loop occurrences back to source names."""
    return tuple(sorted((v.partition("#")[0], x) for v, x in at.items()))


@dataclass
class _PairResult:
    conflict: bool
    proved: bool  # the answer is a proof, not a budget/cap artifact
    witness: Optional[RaceWitness] = None


def _solve_pair(
    f: _Ref,
    g: _Ref,
    axis: str,
    axis_rng: tuple[int, int],
    outer: Mapping[str, tuple[int, int]],
    inner: Mapping[str, tuple[int, int]],
    exact_space: bool,
) -> _PairResult:
    """Exact cross-lane feasibility of one reference pair (+ witness)."""
    lo, hi = axis_rng
    span = hi - lo
    c_f = f.terms.get(axis, 0)
    c_g = g.terms.get(axis, 0)
    base = f.const - g.const
    labelled = lane_terms(f.terms, g.terms, axis, outer, inner)
    if labelled is None:
        # out-of-scope variable: conservatively conflicting
        return _PairResult(conflict=True, proved=False)
    shared = [term for _, _, term in labelled]

    def build(values: Sequence[int], ia: int, ib: int) -> RaceWitness:
        # each side binds the axis, the outer loops and the loops around
        # its own reference; an unconstrained one sits at its lower bound
        at_a = {axis: ia}
        at_b = {axis: ib}
        for (side, var, _), v in zip(labelled, values):
            if side != "b":
                at_a[var] = v
            if side != "a":
                at_b[var] = v
        for at, ref in ((at_a, f), (at_b, g)):
            for var in (*outer, *ref.loops):
                at.setdefault(var, (outer.get(var) or inner[var])[0])
        return RaceWitness(
            axis=axis, iter_a=ia, iter_b=ib, array=f.array,
            element=f.const + sum(c * at_a[n] for n, c in f.terms.items()),
            ref_a=f.text, ref_b=g.text,
            write_a=f.is_write, write_b=g.is_write,
            env_a=_source_env(at_a), env_b=_source_env(at_b),
            exact=exact_space,
        )

    if c_f == 0 and c_g == 0:
        sol, proved = solve_sum(0, base, shared)
        if sol is not None:
            return _PairResult(True, True, build(sol, lo, lo + 1))
        return _PairResult(False, proved)

    # relaxed solve first: both lane values free, distinctness dropped.
    # Infeasible => proof of independence (the relaxation only adds
    # solutions); a solution with distinct lanes is already a witness.
    relaxed = [(c, lo, hi) for c in (c_f, -c_g) if c]
    sol, proved = solve_sum(0, base, relaxed + shared)
    if sol is None:
        return _PairResult(False, proved)
    head = sol[: len(relaxed)]
    values = sol[len(relaxed):]
    if c_f and c_g:
        ia, ib = head
    elif c_f:
        # g's element is lane-invariant: any other lane for ib works
        ia = head[0]
        ib = lo if ia != lo else lo + 1
    else:
        ib = head[0]
        ia = lo if ib != lo else lo + 1
    if ia != ib:
        return _PairResult(True, True, build(values, ia, ib))

    # every relaxed solve may keep landing on ia == ib; substitute
    # ib = ia - delta and walk lane distances, smallest first.  A few
    # budget-exhausted solves in a row abort the refinement (inexact).
    strikes = 0
    proved_all = True
    enumerated_all = span == 0
    for delta in _deltas(span):
        ia_lo = lo + max(0, delta)
        ia_hi = hi + min(0, delta)
        if ia_lo > ia_hi:
            continue
        terms = list(shared)
        if c_f != c_g:
            terms.insert(0, (c_f - c_g, ia_lo, ia_hi))
        sol, proved = solve_sum(0, base + c_g * delta, terms, budget=512)
        if sol is not None:
            ia, values = (sol[0], sol[1:]) if c_f != c_g else (ia_lo, sol)
            return _PairResult(True, True, build(values, ia, ia - delta))
        if not proved:
            proved_all = False
            strikes += 1
            if strikes >= 8:
                return _PairResult(False, False)
        if abs(delta) == span:
            enumerated_all = True
    return _PairResult(False, proved_all and enumerated_all)


# -- concrete (exhaustive) tier ----------------------------------------------


class _BudgetExceeded(Exception):
    pass


class _ConcreteChecker:
    """Exhaustively execute the index space around one axis occurrence.

    Walks the chain of statements enclosing the axis loop with real
    bound and guard evaluation, then for each assignment of the outer
    variables replays every lane of the axis and records which element
    each reference touches.  Conflict detection keys on
    ``(array, element)`` per outer assignment, keeping per conflict
    class (``is_write``, accumulation statement) one access plus one
    on a different lane — sufficient statistics for an exact verdict.
    """

    def __init__(
        self,
        chain: Sequence[Stmt],
        axis_loop: Loop,
        params: Mapping[str, int],
        strides: Mapping[str, tuple[int, ...]],
    ) -> None:
        self.chain = list(chain)
        self.axis_loop = axis_loop
        self.params = params
        self.strides = strides
        self.accesses = 0
        self.env: dict[str, int] = {}
        self.lane = 0
        # (array, elem) -> {(write, accum): [(lane, text, env), ...]}
        self.table: dict[tuple[str, int], dict] = {}
        self.witness: Optional[RaceWitness] = None
        self.has_exempt = False
        # id(bound / array reference) -> its record, params folded in
        self._records: dict[int, _Record] = {}
        # id(assignment) -> its accesses (ref, text, is_write, accum key)
        self._assigns: dict[int, list[tuple[Expr, str, bool, Optional[int]]]] = {}

    def _eval(self, node) -> int:
        """Evaluate a bound or an array reference's element index in the
        current env.

        The params are folded in once per AST node: this walk visits
        every access of the space, and the env holds loop variables only
        (it is what a witness prints).
        """
        record = self._records.get(id(node))
        if record is None:
            if isinstance(node, ArrayRef):
                record = _linearize(node, self.strides, self.params)
            else:
                try:
                    a = node if isinstance(node, Affine) else node.affine()
                    record = a.fold(self.params)
                except NotAffineError as exc:
                    raise _Unsupported(str(exc)) from exc
            self._records[id(node)] = record
        v, terms = record
        try:
            for n, c in terms:
                v += c * self.env[n]
        except KeyError as exc:
            raise _Unsupported(f"unbound loop variable {exc.args[0]!r}") from exc
        return v

    def run(self) -> None:
        """Walk the space: afterwards ``witness`` (serial), else
        ``has_exempt`` (reduction), is exact for this parameter binding."""
        self._walk_chain(0)

    def _walk_chain(self, k: int) -> None:
        node = self.chain[k]
        if node is self.axis_loop:
            self._run_axis(node)
            return
        nxt = self.chain[k + 1]
        if isinstance(node, Loop):
            for v in range(self._eval(node.lower), self._eval(node.upper) + 1):
                self.env[node.index] = v
                self._walk_chain(k + 1)
                if self.witness is not None:
                    break  # serial regardless of anything else: done
            self.env.pop(node.index, None)
        elif isinstance(node, Guard):
            want_body = any(s is nxt for s in node.body)
            if self._guard_member(node) == want_body:
                self._walk_chain(k + 1)
        else:  # pragma: no cover - chains only contain loops and guards
            raise _Unsupported(f"unexpected {type(node).__name__} on path")

    def _guard_member(self, guard: Guard) -> bool:
        v = self.env.get(guard.index)
        if v is None:
            raise _Unsupported(f"guard on unbound index {guard.index!r}")
        return any(
            self._eval(iv.lower) <= v <= self._eval(iv.upper)
            for iv in guard.intervals
        )

    def _run_axis(self, loop: Loop) -> None:
        self.table = {}  # conflicts are per assignment of the outer loops
        for lane in range(self._eval(loop.lower), self._eval(loop.upper) + 1):
            self.lane = lane
            self.env[loop.index] = lane
            self._walk_body(loop.body)
            if self.witness is not None:
                break
        self.env.pop(loop.index, None)

    def _walk_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            if self.witness is not None:
                return
            if isinstance(stmt, Assign):
                accesses = self._assigns.get(id(stmt))
                if accesses is None:
                    # key on the *static* statement so accumulation
                    # accesses from different lanes recognize each other
                    accesses = self._assigns[id(stmt)] = [
                        (ref, str(ref), is_write, id(stmt) if accum else None)
                        for ref, is_write, accum in _assign_accesses(stmt)
                    ]
                for access in accesses:
                    self._record(*access)
            elif isinstance(stmt, Loop):
                for v in range(self._eval(stmt.lower), self._eval(stmt.upper) + 1):
                    self.env[stmt.index] = v
                    self._walk_body(stmt.body)
                self.env.pop(stmt.index, None)
            elif isinstance(stmt, Guard):
                if self._guard_member(stmt):
                    self._walk_body(stmt.body)
                else:
                    self._walk_body(stmt.else_body)
            else:
                raise _Unsupported(f"cannot analyze {type(stmt).__name__}")

    def _record(
        self, ref: Expr, text: str, is_write: bool, accum: Optional[int]
    ) -> None:
        self.accesses += 1
        if self.accesses > CONCRETE_CAP:
            raise _BudgetExceeded
        if isinstance(ref, ScalarRef):
            key = (SCALAR_PREFIX + ref.name, 0)
        else:
            key = (ref.array, self._eval(ref))
        classes = self.table.setdefault(key, {})
        cls = (is_write, accum)
        mine = classes.get(cls)
        if mine is None:
            classes[cls] = [(self.lane, text, dict(self.env))]
        elif len(mine) == 1 and mine[0][0] != self.lane:
            mine.append((self.lane, text, dict(self.env)))
        # check this access against every stored class
        for (o_write, o_accum), entries in classes.items():
            if not (is_write or o_write):
                continue
            other = next(
                (e for e in entries if e[0] != self.lane), None
            )
            if other is None:
                continue
            if accum is not None and accum == o_accum:
                self.has_exempt = True
                continue
            if self.witness is None:
                o_lane, o_text, o_env = other
                self.witness = RaceWitness(
                    axis=self.axis_loop.index, iter_a=o_lane, iter_b=self.lane,
                    array=key[0], element=key[1], ref_a=o_text, ref_b=text,
                    write_a=o_write, write_b=is_write,
                    env_a=tuple(sorted(o_env.items())),
                    env_b=tuple(sorted(self.env.items())),
                )


# -- the analyzer -------------------------------------------------------------


#: an axis's own bound intervals (lower, upper), or why they do not fold
_Bounds = Union[tuple[tuple[int, int], tuple[int, int]], AnalysisError]


class _Analyzer(Scope):
    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        super().__init__()
        self.program = program
        self.params = params
        self.strides = {a.name: a.strides(params) for a in program.arrays}
        self.verdicts: list[AxisVerdict] = []

    def run(self) -> tuple[AxisVerdict, ...]:
        self.walk_body(self.program.body)
        return tuple(self.verdicts)

    def loop(self, loop: Loop) -> None:
        ranges = _fold(self.ranges, self.params, {})
        path = tuple(r.index for r in self.ranges) + (loop.index,)
        try:
            bounds: _Bounds = (
                interval(loop.lower.affine(), self.params, ranges),
                interval(loop.upper.affine(), self.params, ranges),
            )
        except AnalysisError as exc:
            bounds = exc
        chain = [stmt for _, _, stmt in self.path]
        self.verdicts.append(
            self._classify(loop, self.path[0][1], path, chain, ranges, bounds)
        )
        if isinstance(bounds, AnalysisError):
            self.walk_body(loop.body, f"for {loop.index}")  # out of scope
        else:
            super().loop(loop)

    def _classify(
        self,
        loop: Loop,
        nest: int,
        path: tuple[str, ...],
        chain: list[Stmt],
        outer: dict[str, tuple[int, int]],
        bounds: _Bounds,
    ) -> AxisVerdict:
        def verdict(kind, reason, witness=None, reductions=(), exact=True):
            return AxisVerdict(
                nest=nest, path=path, index=loop.index, depth=len(path) - 1,
                verdict=kind, reason=reason, witness=witness,
                reduction_targets=tuple(sorted(set(reductions))), exact=exact,
            )

        if isinstance(bounds, AnalysisError):
            return verdict(
                "unknown", f"bounds not analyzable: {bounds}", exact=False
            )
        lo_r, hi_r = bounds
        rng = (lo_r[0], hi_r[1])
        if rng[1] - rng[0] <= 0:
            return verdict("doall", "at most one iteration")
        # an axis whose own bounds vary with an enclosing variable
        # (triangular nest) is analyzed over its rectangular hull; any
        # witness found there may name phantom iterations, so the
        # symbolic tier's answer cannot count as exact
        rng_exact = lo_r[0] == lo_r[1] and hi_r[0] == hi_r[1]

        # symbolic tier first: for rectangular spaces its answers are
        # already exact proofs/witnesses and cost no enumeration
        collector: Optional[_Collector] = None
        try:
            collector = _Collector(self.params, self.strides, loop, outer)
        except _Unsupported as exc:
            symbolic = verdict(
                "unknown", f"outside affine subset: {exc}", exact=False
            )
        else:
            symbolic = _classify_symbolic(
                collector, loop.index, outer, rng, verdict, rng_exact
            )
        if symbolic.exact:
            return symbolic

        # inexact (triangular bounds, guards, solver budget): decide by
        # exhaustive enumeration when the space is small enough
        space = _space_estimate(chain, loop, outer, rng, collector)
        if space is None or space > CONCRETE_CAP:
            return symbolic
        checker = _ConcreteChecker(chain, loop, self.params, self.strides)
        try:
            checker.run()
        except (_BudgetExceeded, _Unsupported):
            return symbolic  # keep the conservative symbolic answer
        if checker.witness is not None:
            return verdict(
                "serial", "cross-lane dependence (exhaustive check)",
                witness=checker.witness,
            )
        if checker.has_exempt:
            return verdict(
                "reduction", "accumulation-only conflicts (exhaustive check)",
                reductions=collector.reductions() if collector else (),
            )
        return verdict("doall", "no cross-lane conflicts (exhaustive check)")


def _space_estimate(
    chain: Sequence[Stmt],
    loop: Loop,
    outer: Mapping[str, tuple[int, int]],
    rng: tuple[int, int],
    collector: Optional[_Collector],
) -> Optional[int]:
    """Upper bound on accesses the concrete checker would record.

    ``None`` means "unbounded as far as we can tell" (an enclosing loop
    without an analyzable range) — the concrete tier is skipped rather
    than burning its budget on a hopeless walk.
    """
    total = rng[1] - rng[0] + 1
    for node in chain:
        if isinstance(node, Loop) and node is not loop:
            r = outer.get(node.index)
            if r is None:
                return None
            total *= max(1, r[1] - r[0] + 1)
    if collector is None:
        # outside the symbolic subset: the concrete walk may still
        # succeed, so allow it whenever the enclosing space alone is
        # small (its own budget guard bounds the rest)
        return total if total <= CONCRETE_CAP else None
    return total * max(1, collector.per_lane)


def _classify_symbolic(
    collector: _Collector,
    axis: str,
    outer: Mapping[str, tuple[int, int]],
    rng: tuple[int, int],
    verdict,
    rng_exact: bool,
) -> AxisVerdict:
    span = rng[1] - rng[0]
    by_array: dict[str, list[_Ref]] = {}
    for r in collector.refs:
        by_array.setdefault(r.array, []).append(r)
    exact_space = collector.exact and rng_exact
    has_exempt = False
    best_inexact: Optional[tuple[str, str]] = None
    for refs in by_array.values():
        for i, f in enumerate(refs):
            for g in refs[i:]:
                if not (f.is_write or g.is_write):
                    continue
                # the conservative screen first: a False
                # is already a proof of independence
                if not lane_conflict(
                    f.const, f.terms, g.const, g.terms,
                    axis, span, rng[0], outer, collector.inner,
                ):
                    continue
                exempt = f.accum is not None and f.accum == g.accum
                result = _solve_pair(
                    f, g, axis, rng, outer, collector.inner, exact_space
                )
                if not result.conflict:
                    if result.proved:
                        continue  # screen overturned exactly
                    if not exempt:
                        best_inexact = best_inexact or (f.text, g.text)
                    continue
                if exempt:
                    has_exempt = True
                    continue
                if result.witness is None:
                    best_inexact = best_inexact or (f.text, g.text)
                    continue
                return verdict(
                    "serial",
                    f"cross-lane dependence between {f.text} and {g.text}",
                    witness=result.witness,
                    exact=exact_space and result.witness.exact,
                )
    if best_inexact is not None:
        return verdict(
            "serial",
            "possible cross-lane dependence between "
            f"{best_inexact[0]} and {best_inexact[1]} (witness search "
            "inconclusive)",
            exact=False,
        )
    if has_exempt:
        return verdict(
            "reduction", "accumulation-only conflicts",
            reductions=collector.reductions(), exact=exact_space,
        )
    return verdict("doall", "no cross-lane conflicts", exact=exact_space)


def bind_params(
    program: Program, params: Optional[Mapping[str, int]] = None
) -> dict[str, int]:
    """Complete a parameter binding, pinning unbound params to 16."""
    bound = dict(params or {})
    for name in program.params:
        bound.setdefault(name, DEFAULT_PARAM)
    return bound


def analyze_parallelism(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
) -> ParallelismProfile:
    """Classify every loop axis of ``program`` at concrete sizes."""
    bound = bind_params(program, params)
    with span("parallelism", program=program.name) as sp:
        profile = ParallelismProfile(
            program_name=program.name,
            params=tuple(sorted(bound.items())),
            verdicts=_Analyzer(program, bound).run(),
        )
        counts = profile.counts()
        metrics.inc("analysis.parallelism.runs")
        metrics.inc("analysis.parallelism.axes", len(profile.verdicts))
        for kind in ("doall", "reduction", "serial"):
            metrics.inc(f"analysis.parallelism.{kind}", counts[kind])
        metrics.inc(
            "analysis.parallelism.races",
            sum(1 for v in profile.verdicts if v.witness is not None),
        )
        sp.attrs.update(axes=len(profile.verdicts), serial=counts["serial"])
        return profile
