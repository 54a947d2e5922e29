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
    the nest is outside the integer-affine subset (never the case for
    the study programs).

Each axis asks the shared :mod:`.dependence_test` one exact question
per reference pair (:func:`~.dependence_test.lane_witness`).  Every
reference is solved over the concrete box of its own guard-narrowed
scope; where that box is a hull of the real space (a triangular bound,
a multi-interval guard, an else branch) a proof of independence still
holds, and a solution counts as a witness only once both environments
satisfy the real loop bounds and guards around their references.  So
the answer is a witness, a proof, or an exhausted search budget — the
one inexact outcome, counted as ``analysis.parallelism.inexact``.
The program is collected once, by one walk (:class:`_Analyzer`): one
rule (:func:`_assign_accesses`) lists an assignment's accesses and one
(:func:`_linearize`) numbers the elements they touch, once per access,
in pre-order, so each loop's accesses are a contiguous slice that its
pair questions and reduction targets read.  Every concrete index range
is :func:`~repro.lang.scope.fold_range`'s: the guard-narrowed scope
eliminated, then folded at the parameters, once per loop or guard body.

Layering: depends on ``lang`` and ``obs`` only — element numbering
reproduces the tracer's column-major linearization locally so nothing
here imports the interpreter or the codegen backend.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import count
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from ..lang import (
    Affine,
    AnalysisError,
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Expr,
    Loop,
    NotAffineError,
    Program,
    ScalarRef,
    Scope,
    UnaryOp,
)
from ..lang.lowering import linearize
from ..lang.scope import fold_range, index_intervals
from ..obs import metrics, span
from .dependence_test import Collision, Side, lane_witness

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
    references both touch.  Both environments are checked against the
    real (possibly triangular, guarded) bounds, so ``exact`` is always
    ``True``; it stays in :meth:`ParallelismProfile.as_dict`.
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
        return (
            f"{self.axis}={self.iter_a} vs {self.axis}={self.iter_b}: "
            f"{kind} on {where} — {self.ref_a} @({ea}) / {self.ref_b} @({eb})"
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
    """A loop in scope at an access: its number in walk order, its index
    and the concrete range :func:`~repro.lang.scope.fold_range` gives
    that index over the guard-narrowed scope there."""

    num: int
    index: str
    range: tuple[int, int]


#: a loop bound or guard around an access, folded at the parameters: an
#: index and the intervals ``(lower, upper)`` it lies in (for an else
#: branch: outside), each bound a record ``(const, ((name, coeff), ...))``
_Bound = tuple[str, tuple[tuple[tuple, tuple], ...], bool]


class _Access(NamedTuple):
    """One access of the program, linearized once: the (pseudo-)array,
    its element record over source index names, the loops in scope
    around it, outermost first, and the bounds and guards it runs under."""

    array: str
    const: int
    terms: tuple[tuple[str, int], ...]
    is_write: bool
    text: str
    accum: Optional[int]  # statement number when part of an accumulation
    loops: tuple[_Occurrence, ...]
    bounds: tuple[_Bound, ...]


def _value(record: tuple, env: Mapping[str, int]) -> int:
    const, terms = record
    return const + sum(c * env[n] for n, c in terms)


class _Ref(NamedTuple):
    """One access as one axis's pair question reads it.

    Inner loops are variables per *occurrence* (``j#0``, ``j#1``, ...),
    like :attr:`.model.LoopCtx.loop_id`: fusion's peeling leaves sibling
    loops that reuse an index name over different ranges.
    """

    array: str
    side: Side
    is_write: bool
    text: str
    accum: Optional[int]  # statement number when part of an accumulation
    bounds: tuple[_Bound, ...]

    def admits(self, at: Mapping[str, int]) -> bool:
        """Whether ``at`` is an iteration of this access: every loop
        bound and guard around it holds there."""
        env = {name.partition("#")[0]: v for name, v in at.items()}
        for index, intervals, inside in self.bounds:
            v = env[index]
            if inside != any(
                _value(lo, env) <= v <= _value(hi, env) for lo, hi in intervals
            ):
                return False
        return True


def _refs(accesses: Sequence[_Access], depth: int) -> list[_Ref]:
    """The :class:`_Ref` of each of ``accesses`` for the axis at ``depth``
    whose body holds them."""
    refs = []
    for a in accesses:
        axis, names, inner = a.loops[depth], {}, {}
        for loop in a.loops[depth + 1:]:
            names[loop.index] = name = f"{loop.index}#{loop.num - axis.num - 1}"
            inner[name] = loop.range
        side = Side(
            a.const, {names.get(n, n): c for n, c in a.terms}, axis.range,
            {loop.index: loop.range for loop in a.loops[:depth]}, inner,
        )
        refs.append(_Ref(a.array, side, a.is_write, a.text, a.accum, a.bounds))
    return refs


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


# -- the pair questions ------------------------------------------------------


def _source_env(at: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    """A witness environment: loop occurrences back to source names."""
    return tuple(sorted((v.partition("#")[0], x) for v, x in at.items()))


def _race(f: _Ref, g: _Ref, axis: str, collision: Collision) -> RaceWitness:
    """The witness of :func:`~.dependence_test.lane_witness`'s
    ``collision`` of ``f`` and ``g``: each side binds the axis, the outer
    loops and the loops around its own reference."""
    at_a, at_b = collision
    return RaceWitness(
        axis=axis, iter_a=at_a[axis], iter_b=at_b[axis], array=f.array,
        element=f.side.const + sum(c * at_a[n] for n, c in f.side.terms.items()),
        ref_a=f.text, ref_b=g.text,
        write_a=f.is_write, write_b=g.is_write,
        env_a=_source_env(at_a), env_b=_source_env(at_b),
    )


def _classify(refs: list[_Ref], axis: str, verdict) -> AxisVerdict:
    """The verdict of ``axis`` over the accesses of its body."""
    by_array: dict[str, list[_Ref]] = {}
    for r in refs:
        by_array.setdefault(r.array, []).append(r)
    has_exempt = False
    inexact: Optional[tuple[str, str]] = None
    for group in by_array.values():
        for i, f in enumerate(group):
            for g in group[i:]:
                if not (f.is_write or g.is_write):
                    continue
                collision, proved = lane_witness(
                    f.side, g.side, axis,
                    lambda at_a, at_b, f=f, g=g: f.admits(at_a) and g.admits(at_b),
                )
                if collision is None and proved:
                    continue
                if f.accum is not None and f.accum == g.accum:
                    has_exempt = True
                    continue
                if collision is None:
                    inexact = inexact or (f.text, g.text)
                    continue
                return verdict(
                    "serial",
                    f"cross-lane dependence between {f.text} and {g.text}",
                    witness=_race(f, g, axis, collision),
                )
    if inexact is not None:
        return verdict(
            "serial",
            f"possible cross-lane dependence between {inexact[0]} and "
            f"{inexact[1]} (witness search inconclusive)",
            exact=False,
        )
    if has_exempt:
        return verdict(
            "reduction", "accumulation-only conflicts",
            reductions=[r.text for r in refs if r.accum is not None and r.is_write],
        )
    return verdict("doall", "no cross-lane conflicts")


# -- the analyzer -------------------------------------------------------------


class _Analyzer(Scope):
    """One walk of the program that linearizes each access once.

    :attr:`accesses` lists them in pre-order, so a loop's accesses are a
    contiguous slice of it; a loop is classified once its body is walked,
    into the verdict slot it took on entry.  :attr:`box` holds the loops
    in scope, folded on entry to each body over its guard-narrowed scope
    (or, as a string, why the body cannot be collected), and
    :attr:`bounds` the loop bounds and guards around it.
    :attr:`failures` lists, in walk order, why the loops around a point
    cannot be collected (a call, or an access or a bound outside the
    integer-affine subset).
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        super().__init__()
        self.program = program
        self.params = params
        self.strides = {a.name: a.strides(params) for a in program.arrays}
        self.verdicts: list[Optional[AxisVerdict]] = []
        self.accesses: list[_Access] = []
        self.enclosing: list[tuple[int, str]] = []  # one per entry of ``ranges``
        self.box: Union[tuple[_Occurrence, ...], str] = ()
        self.folded: tuple = ()  # the ``ranges`` entries ``box`` was folded from
        self.bounds: tuple[_Bound, ...] = ()
        self.failures: list[str] = []
        self._stmts, self._loops = count(), count()  # walk-order numbers

    def run(self) -> tuple[AxisVerdict, ...]:
        self.walk_body(self.program.body)
        return tuple(self.verdicts)

    def walk_body(self, body: Sequence, label: str = "body") -> None:
        if not body:
            return
        saved = self.box, self.folded, self.bounds
        if not isinstance(self.box, str):
            try:
                self._enter(label)
            except AnalysisError as exc:
                self.box = str(exc)
        super().walk_body(body, label)
        self.box, self.folded, self.bounds = saved

    def _enter(self, label: str) -> None:
        """Fold the box and the bounds of the body being entered: the
        ranges a guard or a new loop changed, and the ones inside them."""
        if self.path:  # a loop's or a guard's body
            stmt = self.path[-1][2]
            folded = tuple(
                (lo.fold(self.params), hi.fold(self.params))
                for lo, hi in index_intervals(stmt)
            )
            self.bounds += ((stmt.index, folded, label != "else"),)
        keep = 0
        for old, new in zip(self.folded, self.ranges):
            if old is not new:
                break
            keep += 1
        self.box = self.box[:keep] + tuple(
            _Occurrence(num, index, fold_range(
                Affine.var(index), self.ranges[:k + 1], self.params
            ))
            for k, (num, index) in enumerate(self.enclosing[keep:], keep)
        )
        self.folded = tuple(self.ranges)

    def assign(self, stmt: Assign) -> None:
        if isinstance(self.box, str):
            self.failures.append(self.box)
            return
        stmt_id = next(self._stmts)
        accesses = []
        for ref, is_write, accum in _assign_accesses(stmt):
            try:
                array, const, terms = _linearize(ref, self.strides, self.params)
            except _Unsupported as exc:
                self.failures.append(str(exc))
                return
            accesses.append(_Access(
                array, const, terms, is_write, str(ref),
                stmt_id if accum else None, self.box, self.bounds,
            ))
        self.accesses += accesses

    def call(self, stmt: CallStmt) -> None:
        self.failures.append(f"cannot analyze {type(stmt).__name__}")

    def loop(self, loop: Loop) -> None:
        path = tuple(r.index for r in self.ranges) + (loop.index,)
        nest = self.path[0][1]

        def verdict(kind, reason, witness=None, reductions=(), exact=True):
            return AxisVerdict(
                nest=nest, path=path, index=loop.index, depth=len(path) - 1,
                verdict=kind, reason=reason, witness=witness,
                reduction_targets=tuple(sorted(set(reductions))), exact=exact,
            )

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
            saved, self.box = self.box, str(exc)
            self.walk_body(loop.body, f"for {loop.index}")  # out of scope
            self.box = saved
            return
        self.enclosing.append((next(self._loops), loop.index))
        start, failed = len(self.accesses), len(self.failures)
        super().loop(loop)
        self.enclosing.pop()
        if hi_r[1] - lo_r[0] <= 0:
            self.verdicts[slot] = verdict("doall", "at most one iteration")
        elif len(self.failures) > failed:
            self.verdicts[slot] = verdict(
                "unknown", f"outside affine subset: {self.failures[failed]}",
                exact=False,
            )
        else:
            self.verdicts[slot] = _classify(
                _refs(self.accesses[start:], len(path) - 1), loop.index, verdict
            )


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
            "analysis.parallelism.inexact",
            sum(1 for v in profile.verdicts if not v.exact and v.verdict != "unknown"),
        )
        metrics.inc(
            "analysis.parallelism.races",
            sum(1 for v in profile.verdicts if v.witness is not None),
        )
        sp.attrs.update(axes=len(profile.verdicts), serial=counts["serial"])
        return profile
