"""Vectorized memory-trace generation.

Generating the address stream does not require computing values: every
subscript is affine in loop indices, so the accesses of an innermost loop
form arithmetic sequences.  The generator compiles a program into a small
internal form, walks outer loops in Python, and emits each innermost loop
as a block of numpy arithmetic — including fused loops with boundary
:class:`Guard` statements, which are segmented into runs where the active
statement list is constant.

The internal form is the one lowering both tracers read (the codegen
tracer evaluates the same nodes over numpy frames).  :class:`_Compiler`
folds the bound parameters into every subscript linearisation ``Σ (sub −
1) · stride``, loop bound and guard bound once and stores the result as
an integer *address record* ``(const, ((loop var, coeff), …))``;
evaluating one is integer arithmetic over the live loop variables.  The
supported input is therefore *integer-affine after binding*: a
fractional residue (``A[i / 2]``, ``for i = 1, N / 2`` at an odd ``N``)
is an :class:`~repro.lang.AnalysisError` naming the reference or loop
and the binding — the interpreter's own "non-integral bound" rule, stated
once for both tracers, instead of a truncated address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..lang import (
    Affine,
    AnalysisError,
    ArrayRef,
    Assign,
    CallStmt,
    Guard,
    Loop,
    NotAffineError,
    Program,
    Stmt,
    ZERO,
    array_reads,
)
from . import trace as _trace
from .state import check_params
from .trace import AccessTrace, RefInfo, TraceBuilder, concat_traces

_FLUSH_THRESHOLD = 65536

#: integer address record ``const + Σ coeff · loop var``, parameters folded in
_Record = tuple[int, tuple[tuple[str, int], ...]]


def _at(record: _Record, env: Mapping[str, int]) -> int:
    """Value of an address record at the loop-variable binding ``env``."""
    value, terms = record
    for name, coeff in terms:
        value += coeff * env[name]
    return value


@dataclass(frozen=True)
class _CRef:
    ref_id: int
    array_id: int
    is_write: bool
    linform: _Record  # canonical (column-major) element index


@dataclass(frozen=True)
class _CAssign:
    stmt_id: int
    refs: tuple[_CRef, ...]  # reads in expression order, then the write


@dataclass(frozen=True)
class _CGuard:
    index: str
    intervals: tuple[tuple[_Record, _Record], ...]
    body: tuple["_CNode", ...]
    else_body: tuple["_CNode", ...]


@dataclass(frozen=True)
class _CLoop:
    index: str
    lower: _Record
    upper: _Record
    body: tuple["_CNode", ...]
    flat: bool  # True when no loop is nested anywhere below


_CNode = Union[_CAssign, _CGuard, _CLoop]


class _Compiler:
    """Lowers the AST into the internal form, assigning static ids."""

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.program = program
        self.params = params
        self.array_ids = {a.name: k for k, a in enumerate(program.arrays)}
        self.strides = {a.name: a.strides(params) for a in program.arrays}
        self.sizes = [math.prod(a.shape(params)) for a in program.arrays]
        self.refs: list[RefInfo] = []
        self.stmt_count = 0
        self._linform_cache: dict[ArrayRef, _Record] = {}

    def fold(self, form: Affine, what: object) -> _Record:
        """``form`` as an address record; the error names the reference,
        loop or guard ``what`` it belongs to, and the binding."""
        try:
            return form.fold(self.params)
        except NotAffineError as exc:
            raise AnalysisError(
                f"cannot trace `{what}` at {dict(self.params)}: {exc}"
            ) from None

    def linform(self, ref: ArrayRef) -> _Record:
        # memoized: textually repeated references are common
        record = self._linform_cache.get(ref)
        if record is None:
            form = ZERO
            for sub, stride in zip(ref.indices, self.strides[ref.array]):
                form = form + (sub.affine() - 1) * stride
            record = self._linform_cache[ref] = self.fold(form, ref)
        return record

    def make_ref(self, ref: ArrayRef, stmt_id: int, is_write: bool) -> _CRef:
        ref_id = len(self.refs)
        self.refs.append(
            RefInfo(ref_id, stmt_id, ref.array, is_write, str(ref))
        )
        return _CRef(ref_id, self.array_ids[ref.array], is_write, self.linform(ref))

    def compile_body(self, body: Sequence[Stmt]) -> tuple[_CNode, ...]:
        return tuple(self.compile_stmt(s) for s in body)

    def compile_stmt(self, stmt: Stmt) -> _CNode:
        if isinstance(stmt, Assign):
            stmt_id = self.stmt_count
            self.stmt_count += 1
            refs = [
                self.make_ref(r, stmt_id, False) for r in array_reads(stmt.expr)
            ]
            if isinstance(stmt.target, ArrayRef):
                refs.append(self.make_ref(stmt.target, stmt_id, True))
            return _CAssign(stmt_id, tuple(refs))
        if isinstance(stmt, Guard):
            return _CGuard(
                stmt.index,
                tuple(
                    (self.fold(iv.lower, stmt), self.fold(iv.upper, stmt))
                    for iv in stmt.intervals
                ),
                self.compile_body(stmt.body),
                self.compile_body(stmt.else_body),
            )
        if isinstance(stmt, Loop):
            body = self.compile_body(stmt.body)
            flat = not any(_contains_loop(n) for n in body)
            return _CLoop(
                stmt.index,
                self.fold(stmt.lower.affine(), stmt),
                self.fold(stmt.upper.affine(), stmt),
                body,
                flat,
            )
        if isinstance(stmt, CallStmt):
            raise AnalysisError(
                f"trace generation requires inlined programs; found call to {stmt.proc!r}"
            )
        raise AnalysisError(f"cannot trace statement {type(stmt).__name__}")


def _contains_loop(node: _CNode) -> bool:
    if isinstance(node, _CLoop):
        return True
    if isinstance(node, _CGuard):
        return any(_contains_loop(n) for n in node.body + node.else_body)
    return False


class _Generator:
    def __init__(self, compiler: _Compiler, with_instr: bool) -> None:
        self.with_instr = with_instr
        self.builder = TraceBuilder(
            [a.name for a in compiler.program.arrays],
            compiler.sizes,
            compiler.refs,
            with_instr=with_instr,
        )
        self.sizes = compiler.sizes
        self.env: dict[str, int] = {}
        # scalar-path buffers
        self._buf_aid: list[int] = []
        self._buf_elem: list[int] = []
        self._buf_write: list[bool] = []
        self._buf_ref: list[int] = []
        self._buf_instr: list[int] = []

    # -- scalar path -----------------------------------------------------------

    def _flush(self) -> None:
        if not self._buf_aid:
            return
        self.builder.append(
            np.asarray(self._buf_aid, dtype=np.int32),
            np.asarray(self._buf_elem, dtype=np.int64),
            np.asarray(self._buf_write, dtype=bool),
            np.asarray(self._buf_ref, dtype=np.int32),
            np.asarray(self._buf_instr, dtype=np.int64) if self.with_instr else None,
        )
        self._buf_aid.clear()
        self._buf_elem.clear()
        self._buf_write.clear()
        self._buf_ref.clear()
        self._buf_instr.clear()

    def _emit_assign_scalar(self, node: _CAssign) -> None:
        instr = self.builder.instr_count
        self.builder.instr_count += 1
        for ref in node.refs:
            elem = _at(ref.linform, self.env)
            if not 0 <= elem < self.sizes[ref.array_id]:
                raise AnalysisError(
                    f"out-of-bounds access: element {elem} of array "
                    f"#{ref.array_id} (size {self.sizes[ref.array_id]}) at {self.env}"
                )
            self._buf_aid.append(ref.array_id)
            self._buf_elem.append(elem)
            self._buf_write.append(ref.is_write)
            self._buf_ref.append(ref.ref_id)
            if self.with_instr:
                self._buf_instr.append(instr)
        if len(self._buf_aid) >= _FLUSH_THRESHOLD:
            self._flush()

    # -- walking ------------------------------------------------------------

    def run_body(self, body: tuple[_CNode, ...]) -> None:
        for node in body:
            self.run_node(node)

    def run_node(self, node: _CNode) -> None:
        """Execute ``node``."""
        if isinstance(node, _CAssign):
            self._emit_assign_scalar(node)
        elif isinstance(node, _CGuard):
            value = self.env[node.index]
            if self._member(node, value):
                self.run_body(node.body)
            else:
                self.run_body(node.else_body)
        elif isinstance(node, _CLoop):
            lo = _at(node.lower, self.env)
            hi = _at(node.upper, self.env)
            if lo > hi:
                return
            if node.flat:
                self._run_flat(node, lo, hi)
            else:
                for i in range(lo, hi + 1):
                    self.env[node.index] = i
                    self.run_body(node.body)
                del self.env[node.index]
        else:  # pragma: no cover - compiler produces only the above
            raise AnalysisError(f"unknown node {node!r}")

    def _member(self, guard: _CGuard, value: int) -> bool:
        return any(
            _at(lo, self.env) <= value <= _at(hi, self.env)
            for lo, hi in guard.intervals
        )

    # -- vectorized innermost loop ---------------------------------------------

    def _run_flat(self, node: _CLoop, lo: int, hi: int) -> None:
        self._flush()
        for seg_lo, seg_hi, assigns in self._segments(node.body, node.index, lo, hi):
            if not assigns:
                # instructions with no memory accesses still advance time
                self.builder.instr_count += 0
                continue
            self._emit_segment(node.index, seg_lo, seg_hi, assigns)

    def _segments(
        self, body: tuple[_CNode, ...], var: str, lo: int, hi: int
    ) -> list[tuple[int, int, list[_CAssign]]]:
        """Split [lo, hi] into runs on which guard membership is constant."""
        cuts: set[int] = {lo, hi + 1}
        self._collect_cuts(body, var, lo, hi, cuts)
        points = sorted(cuts)
        out: list[tuple[int, int, list[_CAssign]]] = []
        for a, b in zip(points[:-1], points[1:]):
            seg_hi = b - 1
            if a > seg_hi:
                continue
            assigns: list[_CAssign] = []
            self._resolve(body, var, a, assigns)
            out.append((a, seg_hi, assigns))
        return out

    def _collect_cuts(
        self, body: tuple[_CNode, ...], var: str, lo: int, hi: int, cuts: set[int]
    ) -> None:
        for node in body:
            if isinstance(node, _CGuard):
                if node.index == var:
                    for lo_f, hi_f in node.intervals:
                        if any(name == var for name, _ in lo_f[1] + hi_f[1]):
                            raise AnalysisError(
                                f"guard interval on {var!r} may not reference {var!r}"
                            )
                        a = _at(lo_f, self.env)
                        b = _at(hi_f, self.env)
                        if a <= hi and b >= lo:
                            cuts.add(max(a, lo))
                            cuts.add(min(b + 1, hi + 1))
                self._collect_cuts(node.body, var, lo, hi, cuts)
                self._collect_cuts(node.else_body, var, lo, hi, cuts)

    def _resolve(
        self, body: tuple[_CNode, ...], var: str, point: int, out: list[_CAssign]
    ) -> None:
        """Flatten guards for the segment starting at ``point``."""
        for node in body:
            if isinstance(node, _CAssign):
                out.append(node)
            elif isinstance(node, _CGuard):
                member = self._member(
                    node, point if node.index == var else self.env[node.index]
                )
                self._resolve(node.body if member else node.else_body, var, point, out)
            else:  # pragma: no cover - flat loops contain no loops
                raise AnalysisError("loop inside flat segment")

    def _emit_segment(
        self, var: str, lo: int, hi: int, assigns: list[_CAssign]
    ) -> None:
        n = hi - lo + 1
        cols_aid: list[int] = []
        cols_write: list[bool] = []
        cols_ref: list[int] = []
        cols_stmt_ord: list[int] = []
        specs: list[tuple[int, int]] = []  # (base, slope) per column
        for ordinal, assign in enumerate(assigns):
            for ref in assign.refs:
                base, terms = ref.linform
                slope = 0
                for name, coeff in terms:
                    if name == var:
                        slope = coeff
                    else:
                        base += coeff * self.env[name]
                specs.append((base, slope))
                cols_aid.append(ref.array_id)
                cols_write.append(ref.is_write)
                cols_ref.append(ref.ref_id)
                cols_stmt_ord.append(ordinal)
                # endpoint bounds check (linear in var => endpoints suffice)
                for endpoint in (lo, hi):
                    elem = base + slope * endpoint
                    if not 0 <= elem < self.sizes[ref.array_id]:
                        raise AnalysisError(
                            f"out-of-bounds access: array #{ref.array_id} element "
                            f"{elem} (size {self.sizes[ref.array_id]}) "
                            f"for {var}={endpoint} in segment [{lo},{hi}]"
                        )
        ncols = len(specs)
        if ncols == 0:
            return
        iters = np.arange(lo, hi + 1, dtype=np.int64)
        mat = np.empty((n, ncols), dtype=np.int64)
        for c, (base, slope) in enumerate(specs):
            np.multiply(iters, slope, out=mat[:, c])
            mat[:, c] += base
        elems = mat.reshape(-1)
        aids = np.tile(np.asarray(cols_aid, dtype=np.int32), n)
        writes = np.tile(np.asarray(cols_write, dtype=bool), n)
        refids = np.tile(np.asarray(cols_ref, dtype=np.int32), n)
        instr = None
        if self.with_instr:
            nstmts = len(assigns)
            base_instr = self.builder.instr_count
            row_part = (np.arange(n, dtype=np.int64) * nstmts)[:, None]
            instr = (
                base_instr + row_part + np.asarray(cols_stmt_ord, dtype=np.int64)[None, :]
            ).reshape(-1)
            self.builder.instr_count += n * nstmts
        self.builder.append(aids, elems, writes, refids, instr)

    def take(self) -> AccessTrace:
        """The accesses generated since the last take (instruction ids
        keep counting across takes)."""
        self._flush()
        builder = self.builder
        self.builder = TraceBuilder(
            builder.array_names, builder.array_sizes, builder.refs, self.with_instr
        )
        self.builder.instr_count = builder.instr_count
        return builder.build()


def _estimate(nodes: tuple[_CNode, ...], env: dict[str, int]) -> int:
    """Accesses ``nodes`` generate at the loop binding ``env``, each loop
    counted as its trip count times its middle iteration — exact for
    rectangular nests, the average for triangular ones."""
    total = 0
    for node in nodes:
        if isinstance(node, _CAssign):
            total += len(node.refs)
        elif isinstance(node, _CGuard):
            value = env[node.index]
            taken = any(_at(lo, env) <= value <= _at(hi, env) for lo, hi in node.intervals)
            total += _estimate(node.body if taken else node.else_body, env)
        else:
            lo, hi = _at(node.lower, env), _at(node.upper, env)
            if lo <= hi:
                inner = _estimate(node.body, {**env, node.index: (lo + hi) // 2})
                total += (hi - lo + 1) * inner
    return total


def _restrict(
    node: _CLoop, lo: int, hi: int, body: Optional[tuple[_CNode, ...]] = None
) -> _CLoop:
    """``node`` over ``[lo, hi]`` only — its bounds become the constant
    records ``(lo, ())`` and ``(hi, ())`` — and, given ``body``, running
    that part of its body."""
    if body is None:
        return replace(node, lower=(lo, ()), upper=(hi, ()))
    flat = not any(_contains_loop(n) for n in body)
    return replace(node, lower=(lo, ()), upper=(hi, ()), body=body, flat=flat)


def _pieces(node: _CNode, env: dict[str, int], budget: int) -> list[_CNode]:
    """``node`` at the binding ``env`` as consecutive pieces of about
    ``budget`` accesses (:func:`_estimate`): spans of its loop, or, when
    one iteration alone exceeds the budget, every iteration's body cut
    the same way — consecutive small statements together, a big loop in
    pieces of its own.  Statements other than loops are never cut."""
    if not isinstance(node, _CLoop):
        return [node]
    lo, hi = _at(node.lower, env), _at(node.upper, env)
    per = _estimate(node.body, {**env, node.index: (lo + hi) // 2})
    if per <= budget:
        width = budget // max(per, 1)
        if hi - lo + 1 <= width:
            return [node]
        return [_restrict(node, a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]
    out: list[_CNode] = []
    for i in range(lo, hi + 1):
        inner = {**env, node.index: i}
        group: list[_CNode] = []
        size = 0
        for stmt in node.body:
            est = _estimate((stmt,), inner)
            if group and size + est > budget:
                out.append(_restrict(node, i, i, tuple(group)))
                group, size = [], 0
            if est > budget:
                out += [_restrict(node, i, i, (p,)) for p in _pieces(stmt, inner, budget)]
            else:
                group.append(stmt)
                size += est
        if group:
            out.append(_restrict(node, i, i, tuple(group)))
    return out


class NestTracer:
    """Compile a program once; trace its top-level nests one at a time.

    The interleaver's entry: :meth:`trace` runs one top-level statement
    through the ordinary generator (every bounds and guard check kept),
    optionally with its outermost loop restricted to an inclusive
    ``[lo, hi]`` chunk.  All array declarations stay in force, so
    ``global_keys`` agree across every nest and chunk.

    The measuring chain's entry: :meth:`segments` cuts the trace of a
    run into segments of about :data:`~repro.interp.trace.CHUNK_ACCESSES`
    accesses, in execution order — per time step, each top-level nest
    whole, or in spans of its outer loop, or (when one outer iteration
    alone is larger) one iteration's body in pieces — and
    :func:`trace_program` is their concatenation.  A segment is a
    restricted copy of a top-level nest (:func:`_restrict`), so the
    codegen tracer (:class:`repro.codegen.tracer.NestTracer`) inherits
    the plan and emits the very same segments.
    """

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.program = program
        self.params = check_params(program, params)
        self.compiler = _Compiler(program, self.params)
        self.nests = self.compiler.compile_body(program.body)

    def generator(self, with_instr: bool = False) -> _Generator:
        return _Generator(self.compiler, with_instr)

    def outer_bounds(self, nest: int) -> Optional[tuple[int, int]]:
        """Inclusive range of the nest's outermost loop — what a schedule
        partitions; ``None`` when the statement is not a loop."""
        node = self.nests[nest]
        if not isinstance(node, _CLoop):
            return None
        return _at(node.lower, {}), _at(node.upper, {})

    def trace(
        self, nest: int, span: Optional[tuple[int, int]] = None
    ) -> AccessTrace:
        node = self.nests[nest]
        return self._emit(node if span is None else _restrict(node, *span))

    def _emit(self, node: _CNode, gen: Optional[_Generator] = None) -> AccessTrace:
        gen = gen or self.generator()
        gen.run_node(node)
        return gen.take()

    def plan(self) -> list[_CNode]:
        """One time step as the consecutive pieces :func:`_pieces` cuts
        every top-level statement into (itself, when it fits)."""
        budget = _trace.CHUNK_ACCESSES
        return [piece for node in self.nests for piece in _pieces(node, {}, budget)]

    def segments(self, steps: int = 1, with_instr: bool = False) -> Iterator[AccessTrace]:
        """The trace of ``steps`` time steps, one segment at a time."""
        gen = self.generator(with_instr)
        # instruction ids advance every step, so such steps are re-walked
        return self._steps(steps, lambda node: self._emit(node, gen), not with_instr)

    def _steps(self, steps: int, emit, replay: bool) -> Iterator[AccessTrace]:
        """Every step's segments through ``emit``.  A step that fits in
        one chunk is emitted once and replayed — nothing larger than a
        chunk is kept — a larger one is emitted again each step."""
        pieces = self.plan()
        kept: Optional[list[AccessTrace]] = [] if replay else None
        for step in range(steps):
            if step and kept is not None:
                yield from kept
                continue
            size = 0
            for piece in pieces:
                segment = emit(piece)
                size += len(segment)
                if size > _trace.CHUNK_ACCESSES:
                    kept = None
                elif kept is not None:
                    kept.append(segment)
                yield segment

    def first_touch(
        self,
        segments: Iterable[tuple[int, Optional[tuple[int, int]]]],
        array_id: int,
        elem: int,
        cap: int,
    ) -> tuple[tuple[str, int], ...]:
        """Loop-variable bindings (outermost first) of the first access
        to element ``elem`` of array ``array_id`` when the ``(nest,
        span)`` segments execute in order — a scalar walk of the compiled
        nests, ``()`` when nothing touches it within ``cap`` assignment
        instances."""
        left = cap

        def walk(node: _CNode, env: dict[str, int], span=None):
            nonlocal left
            if left <= 0:
                return None
            if isinstance(node, _CAssign):
                left -= 1
                if any(
                    ref.array_id == array_id
                    and _at(ref.linform, env) == elem
                    for ref in node.refs
                ):
                    return tuple(env.items())
                return None
            if isinstance(node, _CGuard):
                value = env[node.index]
                member = any(
                    _at(lo, env) <= value <= _at(hi, env)
                    for lo, hi in node.intervals
                )
                return walk_body(node.body if member else node.else_body, env)
            lo, hi = span or (_at(node.lower, env), _at(node.upper, env))
            for value in range(lo, hi + 1):
                env[node.index] = value
                found = walk_body(node.body, env)
                if found is not None or left <= 0:
                    return found
            env.pop(node.index, None)
            return None

        def walk_body(body: tuple[_CNode, ...], env: dict[str, int]):
            for child in body:
                found = walk(child, env)
                if found is not None:
                    return found
            return None

        for nest, span in segments:
            found = walk(self.nests[nest], {}, span)
            if found is not None:
                return found
        return ()


def trace_program(
    program: Program,
    params: Mapping[str, int],
    steps: int = 1,
    with_instr: bool = False,
) -> AccessTrace:
    """Generate the memory access trace of ``program`` at the given size.

    ``steps`` repeats the whole body, modelling the outer time-step loop of
    the paper's iterative applications.  ``with_instr=True`` additionally
    records a dynamic instruction id per access (needed by the
    reuse-driven-execution study).  The trace is the concatenation of
    :meth:`NestTracer.segments`.
    """
    tracer = NestTracer(program, params)
    segments = list(tracer.segments(steps, with_instr))
    return concat_traces(segments) if segments else tracer.generator().take()
