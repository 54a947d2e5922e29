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
:data:`CONCRETE_CAP` accesses) are decided *exhaustively*, by a
:class:`~repro.lang.Walk` of the space around the axis that evaluates
real bounds and guards — exact even for triangular nests, and the tier
the property-based oracle exercises.  Larger spaces ask the shared
:mod:`.dependence_test` one exact question per reference pair
(:func:`~.dependence_test.lane_witness`): it either produces a witness,
proves the pair independent, or runs out of budget (witness ``None``,
marked inexact).
The program is collected once, by one walk (:class:`_Analyzer`): one
rule (:func:`_assign_accesses`) lists an assignment's accesses and one
(:func:`_linearize`) numbers the elements they touch, once per access,
in pre-order, so each loop's accesses are a contiguous slice that its
symbolic tier, space estimate and reduction targets read; the exhaustive
tier evaluates the same records.  Every concrete index range is
:func:`~repro.lang.scope.fold_range`'s: the guard-narrowed scope
eliminated, then folded at the parameters.

Layering: depends on ``lang`` and ``obs`` only — element numbering
reproduces the tracer's column-major linearization locally so nothing
here imports the interpreter or the codegen backend.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import count
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from ..lang import (
    Affine,
    AnalysisError,
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Expr,
    Guard,
    Loop,
    NotAffineError,
    Program,
    ReproError,
    ScalarRef,
    Scope,
    Stmt,
    UnaryOp,
    Walk,
)
from ..lang.lowering import linearize
from ..lang.scope import fold_range
from ..obs import metrics, span
from .dependence_test import Collision, lane_witness

#: iteration spaces up to this many accesses are classified exhaustively
CONCRETE_CAP = 200_000

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


# -- element numbering (lang.lowering; no interp/codegen import) -------------


def _linearize(
    ref: Union[ArrayRef, ScalarRef],
    strides: Mapping[str, tuple[int, ...]],
    params: Mapping[str, int],
) -> tuple[str, int, tuple[tuple[str, int], ...]]:
    """The (pseudo-)array ``ref`` reads and its element record, the
    tracers' (:func:`repro.lang.lowering.linearize`) for an array, or
    :class:`_Unsupported` naming why there is none."""
    if isinstance(ref, ScalarRef):
        return SCALAR_PREFIX + ref.name, 0, ()
    dims = strides.get(ref.array)
    if dims is None:
        raise _Unsupported(f"undeclared array {ref.array!r}")
    if len(ref.indices) != len(dims):
        raise _Unsupported(f"rank mismatch on {ref.array!r}")
    try:
        return (ref.array, *linearize(ref, dims, params))
    except NotAffineError as exc:
        raise _Unsupported(str(exc)) from exc


# -- the collected accesses ---------------------------------------------------


class _Occurrence(NamedTuple):
    """A loop the walk met with its index in scope: its number in walk
    order, its index and the concrete range
    :func:`~repro.lang.scope.fold_range` gives that index."""

    num: int
    index: str
    range: tuple[int, int]


class _Access(NamedTuple):
    """One access of the program, linearized once: the (pseudo-)array,
    its element record over source index names and the loops in scope
    around it, outermost first."""

    array: str
    const: int
    terms: tuple[tuple[str, int], ...]
    is_write: bool
    text: str
    accum: Optional[int]  # statement number when part of an accumulation
    loops: tuple[_Occurrence, ...]


@dataclass
class _Ref:
    """One access as one axis's symbolic tier reads it.

    Inner loops are variables per *occurrence* (``j#0``, ``j#1``, ...),
    like :attr:`.model.LoopCtx.loop_id`: fusion's peeling leaves sibling
    loops that reuse an index name over different ranges.
    """

    array: str
    const: int
    terms: dict[str, int]
    is_write: bool
    text: str
    accum: Optional[int]  # statement number when part of an accumulation
    loops: tuple[str, ...]  # the axis-inner loop occurrences enclosing it


class _Slice(NamedTuple):
    """One axis's part of the walk, read by the symbolic tier, the space
    estimate and the reduction targets."""

    refs: list[_Ref]
    inner: dict[str, tuple[int, int]]  # the inner occurrences' ranges
    exact: bool  # False when the axis, or a loop or guard inside, is a hull
    per_lane: int  # upper bound on accesses per axis iteration

    def reductions(self) -> tuple[str, ...]:
        """The accumulation targets, one per accumulating statement."""
        return tuple(
            r.text for r in self.refs if r.accum is not None and r.is_write
        )


def _slice(
    accesses: Sequence[_Access], axis: _Occurrence, depth: int, exact: bool
) -> _Slice:
    """The :class:`_Slice` of the axis ``axis`` at ``depth`` whose body
    holds ``accesses``."""
    refs, inner, per_lane = [], {}, 0
    for a in accesses:
        names, mult = {}, 1
        # an index name's innermost occurrence shadows the others
        for index, loop in {loop.index: loop for loop in a.loops[depth + 1:]}.items():
            names[index] = name = f"{index}#{loop.num - axis.num - 1}"
            lo, hi = inner[name] = loop.range
            mult *= max(0, hi - lo + 1)
        per_lane += mult
        refs.append(_Ref(
            a.array, a.const, {names.get(n, n): c for n, c in a.terms},
            a.is_write, a.text, a.accum, tuple(names.values()),
        ))
    return _Slice(refs, inner, exact, per_lane)


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
    for leaf in stmt.expr.walk():  # validated subscripts read no memory
        if isinstance(leaf, (ArrayRef, ScalarRef)):
            out.append((leaf, False, leaf is self_read))
            if leaf is self_read:
                self_read = None  # mark one read, should the node repeat
    out.append((stmt.target, True, accum))
    return out


# -- symbolic witness --------------------------------------------------------


def _source_env(at: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    """A witness environment: loop occurrences back to source names."""
    return tuple(sorted((v.partition("#")[0], x) for v, x in at.items()))


def _race(
    f: _Ref,
    g: _Ref,
    axis: str,
    collision: Collision,
    outer: Mapping[str, tuple[int, int]],
    inner: Mapping[str, tuple[int, int]],
    exact: bool,
) -> RaceWitness:
    """The witness of :func:`~.dependence_test.lane_witness`'s
    ``collision`` of ``f`` and ``g``.  Each side binds the axis, the
    outer loops and the loops around its own reference; one its
    subscript does not read sits at its lower bound."""
    at_a, at_b = collision
    for at, ref in ((at_a, f), (at_b, g)):
        for var in (*outer, *ref.loops):
            at.setdefault(var, (outer.get(var) or inner[var])[0])
    return RaceWitness(
        axis=axis, iter_a=at_a[axis], iter_b=at_b[axis], array=f.array,
        element=f.const + sum(c * at_a[n] for n, c in f.terms.items()),
        ref_a=f.text, ref_b=g.text,
        write_a=f.is_write, write_b=g.is_write,
        env_a=_source_env(at_a), env_b=_source_env(at_b),
        exact=exact,
    )


# -- concrete (exhaustive) tier ----------------------------------------------


class _Stop(Exception):
    """Ends the exhaustive walk: a witness found, or the cap passed."""


class _Exhaustive(Walk):
    """The index space around one axis occurrence, walked instance by
    instance.

    The chain of statements enclosing the axis loop is pruned to the path
    down to it (a guard keeps the next node in whichever branch holds it)
    and walked with real bound and guard evaluation; every access of an
    assignment instance is recorded with its lane, the axis's entry in
    ``iters``.  Conflict detection keys on ``(array, element)`` per
    binding of the enclosing loops, keeping per conflict class
    (``is_write``, accumulation statement) one access plus one on a
    different lane — sufficient statistics for an exact verdict.
    """

    def __init__(self, analyzer: _Analyzer, chain: Sequence[Stmt]) -> None:
        super().__init__(analyzer.program, analyzer.params)
        self.assigns = analyzer.assigns
        self.chain = chain
        self.depth = sum(isinstance(s, Loop) for s in chain[:-1])
        self.accesses = 0
        self.outer: list[tuple[str, int]] = []  # the binding ``table`` is for
        # (array, elem) -> {(write, accum): [(lane, text, env), ...]}
        self.table: dict[tuple[str, int], dict] = {}
        self.witness: Optional[RaceWitness] = None
        self.has_exempt = False

    def run(self) -> None:
        """Walk the space: afterwards ``witness`` (serial), else
        ``has_exempt`` (reduction), is exact for this parameter binding;
        a witness or more than :data:`CONCRETE_CAP` accesses raise
        :class:`_Stop`."""
        root = self.chain[-1]
        for parent, child in zip(self.chain[-2::-1], self.chain[:0:-1]):
            kept = [root]  # the pruned child, in its first occurrence only
            root = parent.map_bodies(
                lambda s, c=child, k=kept: k.pop() if s is c and k else None
            )
        self.walk_stmt(root)  # ``root`` holds every copy while it is walked

    def record(self, form):
        if isinstance(form, _Access):
            return (form.text, form.const, form.terms)
        return super().record(form)

    def assign(self, stmt: Assign) -> None:
        # a KeyError (the classifier's cue to keep the symbolic answer):
        # an access of ``stmt`` did not linearize
        accesses = self.assigns[id(stmt)]
        if self.iters[: self.depth] != self.outer:
            # conflicts are per assignment of the enclosing loops
            self.outer, self.table = self.iters[: self.depth], {}
        for access, elem in zip(accesses, self.values(self.fold(stmt, accesses))):
            self._record(access, elem)

    def _record(self, access: _Access, elem: int) -> None:
        self.accesses += 1
        if self.accesses > CONCRETE_CAP:
            raise _Stop
        key = (access.array, elem)
        text, is_write, accum = access.text, access.is_write, access.accum
        lane = self.iters[self.depth][1]
        classes = self.table.setdefault(key, {})
        cls = (is_write, accum)
        mine = classes.get(cls)
        if mine is None:
            classes[cls] = [(lane, text, dict(self.iters))]
        elif len(mine) == 1 and mine[0][0] != lane:
            mine.append((lane, text, dict(self.iters)))
        # check this access against every stored class
        for (o_write, o_accum), entries in classes.items():
            if not (is_write or o_write):
                continue
            other = next((e for e in entries if e[0] != lane), None)
            if other is None:
                continue
            if accum is not None and accum == o_accum:
                self.has_exempt = True
                continue
            o_lane, o_text, o_env = other
            self.witness = RaceWitness(
                axis=self.chain[-1].index, iter_a=o_lane, iter_b=lane,
                array=key[0], element=key[1], ref_a=o_text, ref_b=text,
                write_a=o_write, write_b=is_write,
                env_a=tuple(sorted(o_env.items())),
                env_b=tuple(sorted(dict(self.iters).items())),
            )
            raise _Stop


# -- the analyzer -------------------------------------------------------------


class _Analyzer(Scope):
    """One walk of the program that linearizes each access once.

    :attr:`accesses` lists them in pre-order, so a loop's accesses form a
    contiguous slice of it; a loop is classified once its body is walked,
    into the verdict slot it took on entry.  :attr:`failures` lists, in
    walk order, why the loops around a point cannot be collected (a call,
    or an access or a bound outside the integer-affine subset), and
    :attr:`hulls` counts the guards and context-dependent (e.g.
    triangular) loop bounds met: a loop with one inside is analyzed over
    a hull.
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        super().__init__()
        self.program = program
        self.params = params
        self.strides = {a.name: a.strides(params) for a in program.arrays}
        self.verdicts: list[Optional[AxisVerdict]] = []
        self.accesses: list[_Access] = []
        self.assigns: dict[int, list[_Access]] = {}  # id(assignment) -> its own
        self.enclosing: list[_Occurrence] = []  # one per entry of ``ranges``
        self.failures: list[str] = []
        self.hulls = 0
        self._stmts, self._loops = count(), count()  # walk-order numbers

    def run(self) -> tuple[AxisVerdict, ...]:
        self.walk_body(self.program.body)
        return tuple(self.verdicts)

    def assign(self, stmt: Assign) -> None:
        stmt_id = next(self._stmts)
        loops = tuple(self.enclosing)
        accesses = []
        for ref, is_write, accum in _assign_accesses(stmt):
            try:
                array, const, terms = _linearize(ref, self.strides, self.params)
            except _Unsupported as exc:
                self.failures.append(str(exc))
                return
            accesses.append(_Access(
                array, const, terms, is_write, str(ref),
                stmt_id if accum else None, loops,
            ))
        self.assigns[id(stmt)] = accesses
        self.accesses += accesses

    def call(self, stmt: CallStmt) -> None:
        self.failures.append(f"cannot analyze {type(stmt).__name__}")

    def guard(self, guard: Guard) -> None:
        self.hulls += 1  # both branches folded in (hull)
        super().guard(guard)

    def loop(self, loop: Loop) -> None:
        path = tuple(r.index for r in self.ranges) + (loop.index,)
        nest, chain = self.path[0][1], [stmt for _, _, stmt in self.path]

        def verdict(kind, reason, witness=None, reductions=(), exact=True):
            return AxisVerdict(
                nest=nest, path=path, index=loop.index, depth=len(path) - 1,
                verdict=kind, reason=reason, witness=witness,
                reduction_targets=tuple(sorted(set(reductions))), exact=exact,
            )

        outer: dict[str, tuple[int, int]] = {}
        for k, r in enumerate(self.ranges):
            index = Affine.var(r.index)
            try:
                outer[r.index] = fold_range(index, self.ranges[:k + 1], self.params)
            except AnalysisError:
                outer.pop(r.index, None)  # its range does not fold
        slot = len(self.verdicts)
        self.verdicts.append(None)  # filled once the body is walked
        try:
            lo, hi = loop.bounds_affine()
            lo_r = fold_range(lo, self.ranges, self.params)
            hi_r = fold_range(hi, self.ranges, self.params)
        except AnalysisError as exc:
            self.failures.append(str(exc))
            self.verdicts[slot] = verdict(
                "unknown", f"bounds not analyzable: {exc}", exact=False
            )
            self.walk_body(loop.body, f"for {loop.index}")  # out of scope
            return
        # an axis whose own bounds vary with an enclosing variable
        # (triangular nest) is analyzed over its rectangular hull, and so
        # is every loop around it: a witness found there may name phantom
        # iterations, so the symbolic tier's answer cannot count as exact
        exact = lo_r[0] == lo_r[1] and hi_r[0] == hi_r[1]
        self.hulls += not exact
        axis = _Occurrence(next(self._loops), loop.index, (lo_r[0], hi_r[1]))
        self.enclosing.append(axis)
        start, failed, hulls = len(self.accesses), len(self.failures), self.hulls
        super().loop(loop)
        self.enclosing.pop()
        part = self.failures[failed] if len(self.failures) > failed else _slice(
            self.accesses[start:], axis, len(path) - 1, exact and self.hulls == hulls
        )
        self.verdicts[slot] = self._classify(
            loop, chain, verdict, outer, axis.range, part
        )

    def _classify(
        self,
        loop: Loop,
        chain: list[Stmt],
        verdict: Callable[..., AxisVerdict],
        outer: dict[str, tuple[int, int]],
        rng: tuple[int, int],
        part: Union[_Slice, str],
    ) -> AxisVerdict:
        """The verdict of ``loop`` over ``rng``, whose body is ``part`` of
        the walk (or why it cannot be collected)."""
        if rng[1] - rng[0] <= 0:
            return verdict("doall", "at most one iteration")

        # symbolic tier first: for rectangular spaces its answers are
        # already exact proofs/witnesses and cost no enumeration
        collected = part if isinstance(part, _Slice) else None
        symbolic = (
            _classify_symbolic(collected, loop.index, outer, rng, verdict) if collected
            else verdict("unknown", f"outside affine subset: {part}", exact=False)
        )
        if symbolic.exact:
            return symbolic

        # inexact (triangular bounds, guards, solver budget): decide by
        # exhaustive enumeration when the space is small enough
        space = _space_estimate(chain, loop, outer, rng, collected)
        if space is None or space > CONCRETE_CAP:
            return symbolic
        if any(isinstance(s, CallStmt) for s in loop.walk()):
            return symbolic  # the walk would enter the procedure
        checker = _Exhaustive(self, chain)
        try:
            checker.run()
        except _Stop:
            if checker.witness is None:
                return symbolic  # over the cap
        except (_Unsupported, ReproError, KeyError):
            return symbolic  # keep the conservative symbolic answer
        if checker.witness is not None:
            return verdict(
                "serial", "cross-lane dependence (exhaustive check)",
                witness=checker.witness,
            )
        if checker.has_exempt:
            return verdict(
                "reduction", "accumulation-only conflicts (exhaustive check)",
                reductions=collected.reductions() if collected else (),
            )
        return verdict("doall", "no cross-lane conflicts (exhaustive check)")


def _space_estimate(
    chain: Sequence[Stmt],
    loop: Loop,
    outer: Mapping[str, tuple[int, int]],
    rng: tuple[int, int],
    collected: Optional[_Slice],
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
    if collected is None:
        # outside the symbolic subset: the concrete walk may still
        # succeed, so allow it whenever the enclosing space alone is
        # small (its own budget guard bounds the rest)
        return total if total <= CONCRETE_CAP else None
    return total * max(1, collected.per_lane)


def _classify_symbolic(
    part: _Slice,
    axis: str,
    outer: Mapping[str, tuple[int, int]],
    rng: tuple[int, int],
    verdict,
) -> AxisVerdict:
    span = rng[1] - rng[0]
    by_array: dict[str, list[_Ref]] = {}
    for r in part.refs:
        by_array.setdefault(r.array, []).append(r)
    has_exempt = False
    best_inexact: Optional[tuple[str, str]] = None
    for refs in by_array.values():
        for i, f in enumerate(refs):
            for g in refs[i:]:
                if not (f.is_write or g.is_write):
                    continue
                collision, proved = lane_witness(
                    f.const, f.terms, g.const, g.terms,
                    axis, span, rng[0], outer, part.inner,
                )
                if collision is None and proved:
                    continue
                if f.accum is not None and f.accum == g.accum:
                    has_exempt = True
                    continue
                if collision is None:
                    best_inexact = best_inexact or (f.text, g.text)
                    continue
                return verdict(
                    "serial",
                    f"cross-lane dependence between {f.text} and {g.text}",
                    witness=_race(
                        f, g, axis, collision, outer, part.inner, part.exact
                    ),
                    exact=part.exact,
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
            reductions=part.reductions(), exact=part.exact,
        )
    return verdict("doall", "no cross-lane conflicts", exact=part.exact)


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
