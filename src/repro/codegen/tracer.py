"""Whole-nest vectorized trace generation: the production tracer.

The tracer walks no loop in Python: a loop nest is lowered bottom-up
into *blocks* over instance frames.

A *frame* maps each live loop variable to an int64 array holding its
value for every instance of the enclosing iteration space, in execution
order.  Emitting a node against a frame of ``p`` instances yields either

* a **uniform** block — every instance contributes the same column
  pattern, so element indices live in a ``(p, l)`` matrix and the
  per-access metadata is a single row, kept as one period and a repeat
  count.  Collapsing a rectangular loop is then just a reshape, and
  merging sibling statements an ``hstack``; or
* a **grouped** block — per-instance access counts vary (guards,
  triangular bounds), stored flat with a ``counts`` vector and merged
  by scatter on computed destination offsets.

Per-access metadata (write flag, array id, ref id) is packed into one
int64 so every structural merge touches two arrays instead of four.
Top-level nests are emitted as the segments of one plan
(:meth:`NestTracer.segments`), one time step's, its big nests in
pieces; repeating steps is the measuring chain's business
(:class:`repro.harness.TimeSteps`).

Under a layout (:meth:`NestTracer.address_segments`) each reference's
record absorbs its array's placement, so the blocks hold byte addresses
at no extra cost; only a stride break adds a ``divmod`` on its column.

The input is the program's lowering folded at the binding
(:class:`repro.lang.lowering.Fold`), so everything that is not
integer-affine after binding has already been rejected there with an
:class:`~repro.lang.AnalysisError`.  There is no instruction-id mode:
a caller that wants dynamic instruction ids asks the Walk oracle,
:func:`repro.interp.trace_program`, which reads the same fold and whose
traces this one matches bit for bit (``tests/codegen``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

import numpy as np

from .. import stream as _stream
from ..interp.trace import AccessTrace, RefInfo, concat_traces
from ..lang import AnalysisError
from ..lang.lowering import (
    Fold,
    FoldedAssign,
    FoldedGuard,
    FoldedLoop,
    FoldedNode,
    at,
)
from ..memsim.geometry import ELEM_BYTES, L2_LINE_BYTES
from ..obs import metrics
from ..stream import AddressStream, StreamMeta

_AID_SHIFT, _AID_BITS = 1, 12
_REF_SHIFT, _REF_BITS = 13, 19


@dataclass
class _Uniform:
    """Every instance emits the same columns: elems[(instance, column)]."""

    p: int
    elems: np.ndarray  # (p, l) int64
    pattern: np.ndarray  # (l / reps,) packed write|aid|ref, repeated reps times
    reps: int = 1


@dataclass
class _Grouped:
    """Variable per-instance counts; data flat, grouped by instance."""

    p: int
    counts: np.ndarray  # (p,) int64
    elems: np.ndarray  # flat int64
    pattern: np.ndarray  # flat int64
    reps = 1


#: a loop of no iteration: the segment of a program with no statement
_NOTHING = FoldedLoop("", (1, ()), (0, ()), ())


def _empty(p: int) -> _Uniform:
    return _Uniform(p, np.empty((p, 0), np.int64), np.empty(0, np.int64))


def _intra(counts: np.ndarray, total: int) -> np.ndarray:
    """``0..c0-1, 0..c1-1, ...`` — offsets within each group."""
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _to_grouped(b) -> _Grouped:
    if isinstance(b, _Grouped):
        return b
    length = b.elems.shape[1]
    return _Grouped(
        b.p,
        np.full(b.p, length, np.int64),
        np.ascontiguousarray(b.elems).reshape(-1),
        np.tile(b.pattern, b.p * b.reps),
    )


def _place(elems, offset: int, dims):
    """Addresses of in-range element indices under a stride break."""
    addr = offset
    for extent, stride in dims[:-1]:
        elems, digit = divmod(elems, extent)
        addr = addr + digit * stride
    return addr + elems * dims[-1][1]


class _Emitter:
    """Emits blocks of element indices, or, given each array's
    ``Layout.address_map``, of addresses (:meth:`_fold`)."""

    def __init__(self, sizes, placements=None) -> None:
        self.sizes = sizes
        self.placements = placements or [(0, [(size, 1)]) for size in sizes]
        self._cache: dict[int, tuple] = {}

    def _fold(self, ref):
        """``ref``'s record, in-bounds range ``(base, scale, top)`` and what
        a stride break leaves to :func:`_place`.  A positive stride ``s``
        folds in: ``(c·s + off, ((var, coeff·s), …))`` over ``[off, off +
        s·(size−1)]``; a break keeps the element record and range."""
        size = self.sizes[ref.array_id]
        offset, dims = self.placements[ref.array_id]
        if len(dims) > 1 or dims[0][1] <= 0:
            return ref.linform, 0, 1, size - 1, (offset, dims)
        const, terms = ref.linform
        s = dims[0][1]
        record = (const * s + offset, tuple((v, c * s) for v, c in terms))
        return record, offset, s, offset + s * (size - 1), None

    @staticmethod
    def _value(record, frame: Mapping[str, np.ndarray]):
        """Evaluate an address record; int scalar when frame-independent."""
        const, terms = record
        out = None
        for name, coeff in terms:
            term = frame[name] * coeff
            out = term if out is None else out + term
        if out is None:
            return const
        if const:
            out += const
        return out

    # -- node emission -------------------------------------------------------

    def emit(self, node, frame: Mapping[str, np.ndarray], p: int):
        if isinstance(node, FoldedAssign):
            return self._emit_assign(node, frame, p)
        if isinstance(node, FoldedLoop):
            return self._emit_loop(node, frame, p)
        return self._emit_guard(node, frame, p)

    def emit_body(self, nodes, frame, p: int):
        return self._merge_body([self.emit(n, frame, p) for n in nodes], p)

    def _emit_assign(self, node: FoldedAssign, frame, p: int) -> _Uniform:
        cached = self._cache.get(id(node))
        if cached is None:
            words = [
                int(r.is_write) | (r.array_id << _AID_SHIFT) | (r.ref_id << _REF_SHIFT)
                for r in node.refs
            ]
            folded = [self._fold(r) for r in node.refs]
            cached = self._cache[id(node)] = (np.asarray(words, np.int64), folded)
        pattern, folded = cached
        elems = np.empty((p, len(node.refs)), np.int64)
        for c, ref in enumerate(node.refs):
            record, base, scale, top, brk = folded[c]
            v = self._value(record, frame)
            if p == 0:
                continue
            lo, hi = (v, v) if isinstance(v, int) else (int(v.min()), int(v.max()))
            if lo < base or hi > top:
                elem = ((lo if lo < base else hi) - base) // scale
                raise AnalysisError(
                    f"out-of-bounds access: element {elem} of "
                    f"array #{ref.array_id} (size {self.sizes[ref.array_id]})"
                )
            elems[:, c] = v if brk is None else _place(v, *brk)
        return _Uniform(p, elems, pattern)

    def _merge_body(self, blocks, p: int):
        if not blocks:
            return _empty(p)
        if len(blocks) == 1:
            return blocks[0]
        if all(isinstance(b, _Uniform) for b in blocks):
            return _Uniform(
                p,
                np.hstack([b.elems for b in blocks]),
                np.concatenate([np.tile(b.pattern, b.reps) for b in blocks]),
            )
        gs = [_to_grouped(b) for b in blocks]
        counts = np.zeros(p, np.int64)
        for g in gs:
            counts += g.counts
        total = int(counts.sum())
        elems = np.empty(total, np.int64)
        pattern = np.empty(total, np.int64)
        starts = np.cumsum(counts) - counts
        placed = np.zeros(p, np.int64)
        for g in gs:
            n = len(g.elems)
            dest = np.repeat(starts + placed, g.counts) + _intra(g.counts, n)
            elems[dest] = g.elems
            pattern[dest] = g.pattern
            placed += g.counts
        return _Grouped(p, counts, elems, pattern)

    def _emit_loop(self, node: FoldedLoop, frame, p: int):
        lo = self._value(node.lower, frame)
        hi = self._value(node.upper, frame)
        if isinstance(lo, int) and isinstance(hi, int):
            trip = hi - lo + 1
            if trip <= 0 or p == 0:
                return _empty(p)
            sub = {v: np.repeat(a, trip) for v, a in frame.items()}
            sub[node.index] = np.tile(
                np.arange(lo, hi + 1, dtype=np.int64), p
            )
            b = self.emit_body(node.body, sub, p * trip)
            if isinstance(b, _Uniform):
                length = b.elems.shape[1]
                return _Uniform(
                    p, b.elems.reshape(p, trip * length), b.pattern, b.reps * trip
                )
            counts = b.counts.reshape(p, trip).sum(axis=1)
            return _Grouped(p, counts, b.elems, b.pattern)
        # data-dependent (e.g. triangular) bounds: per-instance trip counts
        lo_a = np.broadcast_to(np.asarray(lo, np.int64), (p,))
        hi_a = np.broadcast_to(np.asarray(hi, np.int64), (p,))
        trips = np.maximum(hi_a - lo_a + 1, 0)
        total = int(trips.sum())
        if total == 0:
            return _empty(p)
        sub = {v: np.repeat(a, trips) for v, a in frame.items()}
        sub[node.index] = np.repeat(lo_a, trips) + _intra(trips, total)
        b = self.emit_body(node.body, sub, total)
        if isinstance(b, _Uniform):
            return _Grouped(
                p,
                trips * b.elems.shape[1],
                np.ascontiguousarray(b.elems).reshape(-1),
                np.tile(b.pattern, total * b.reps),
            )
        parent = np.repeat(np.arange(p, dtype=np.int64), trips)
        counts = np.bincount(parent, weights=b.counts, minlength=p).astype(np.int64)
        return _Grouped(p, counts, b.elems, b.pattern)

    def _emit_guard(self, node: FoldedGuard, frame, p: int):
        v = frame[node.index]
        mask = None
        for lo_f, hi_f in node.intervals:
            lo = self._value(lo_f, frame)
            hi = self._value(hi_f, frame)
            m = (v >= lo) & (v <= hi)
            mask = m if mask is None else (mask | m)
        taken = int(mask.sum())
        if taken == p:
            return self.emit_body(node.body, frame, p)
        if taken == 0:
            return self.emit_body(node.else_body, frame, p)
        inv = ~mask
        bt = _to_grouped(
            self.emit_body(node.body, {k: a[mask] for k, a in frame.items()}, taken)
        )
        bf = _to_grouped(
            self.emit_body(
                node.else_body, {k: a[inv] for k, a in frame.items()}, p - taken
            )
        )
        counts = np.empty(p, np.int64)
        counts[mask] = bt.counts
        counts[inv] = bf.counts
        total = int(counts.sum())
        elems = np.empty(total, np.int64)
        pattern = np.empty(total, np.int64)
        starts = np.cumsum(counts) - counts
        for m, g in ((mask, bt), (inv, bf)):
            n = len(g.elems)
            if n == 0:
                continue
            dest = np.repeat(starts[m], g.counts) + _intra(g.counts, n)
            elems[dest] = g.elems
            pattern[dest] = g.pattern
        return _Grouped(p, counts, elems, pattern)

    def segment(self, node):
        """``node`` emitted at the top level (p == 1): its value column,
        write flags, ref ids, and ``field`` to unpack any other per-access
        field of the pattern."""
        metrics.inc("codegen.trace.nests")
        metrics.inc("codegen.trace.nests.compiled")
        block = self.emit(node, {}, 1)
        values, reps = block.elems, block.reps
        if isinstance(block, _Uniform):
            values = np.ascontiguousarray(values).reshape(-1)

        def field(shift: int, bits: int, dtype) -> np.ndarray:
            column = ((block.pattern >> shift) & ((1 << bits) - 1)).astype(dtype)
            return np.tile(column, reps) if reps > 1 else column

        return values, field(0, 1, bool), field(_REF_SHIFT, _REF_BITS, np.int32), field


def _estimate(nodes: tuple[FoldedNode, ...], env: dict[str, int]) -> int:
    """Accesses ``nodes`` generate at the loop binding ``env``, each loop
    counted as its trip count times its middle iteration — exact for
    rectangular nests, the average for triangular ones."""
    total = 0
    for node in nodes:
        if isinstance(node, FoldedAssign):
            total += len(node.refs)
        elif isinstance(node, FoldedGuard):
            total += _estimate(node.body if _member(node, env) else node.else_body, env)
        else:
            lo, hi = at(node.lower, env), at(node.upper, env)
            if lo <= hi:
                inner = _estimate(node.body, {**env, node.index: (lo + hi) // 2})
                total += (hi - lo + 1) * inner
    return total


def _member(guard: FoldedGuard, env: Mapping[str, int]) -> bool:
    """Whether the guard's index lies in one of its intervals at ``env``."""
    value = env[guard.index]
    return any(at(lo, env) <= value <= at(hi, env) for lo, hi in guard.intervals)


def _restrict(
    node: FoldedLoop, lo: int, hi: int, body: Optional[tuple[FoldedNode, ...]] = None
) -> FoldedLoop:
    """``node`` over ``[lo, hi]`` only — its bounds become the constant
    records ``(lo, ())`` and ``(hi, ())`` — and, given ``body``, running
    that part of its body."""
    return replace(node, lower=(lo, ()), upper=(hi, ()), body=body or node.body)


def _pieces(node: FoldedNode, env: dict[str, int], budget: int) -> list[FoldedNode]:
    """``node`` at the binding ``env`` as consecutive pieces of about
    ``budget`` accesses (:func:`_estimate`): spans of its loop, or, when
    one iteration alone exceeds the budget, every iteration's body cut
    the same way — consecutive small statements together, a big loop in
    pieces of its own.  Statements other than loops are never cut."""
    if not isinstance(node, FoldedLoop):
        return [node]
    lo, hi = at(node.lower, env), at(node.upper, env)
    per = _estimate(node.body, {**env, node.index: (lo + hi) // 2})
    if per <= budget:
        width = budget // max(per, 1)
        if hi - lo + 1 <= width:
            return [node]
        return [_restrict(node, a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]
    out: list[FoldedNode] = []
    for i in range(lo, hi + 1):
        inner = {**env, node.index: i}
        group: list[FoldedNode] = []
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
    """Fold a program once; trace its top-level nests as numpy blocks.

    The measuring chain's entry: :meth:`segments` cuts the trace of a
    time step into segments of about :data:`~repro.stream.CHUNK_ACCESSES`
    accesses, in execution order — each top-level nest
    whole, or in spans of its outer loop, or (when one outer iteration
    alone is larger) one iteration's body in pieces; a segment is a
    restricted copy of a top-level nest (:func:`_restrict`).
    :meth:`address_segments` emits the same segments as byte addresses.

    The interleaver's entry: :meth:`trace` emits one top-level statement,
    optionally with its outermost loop restricted to an inclusive ``[lo,
    hi]`` chunk.  All array declarations stay in force, so
    ``global_keys`` agree across every nest and chunk.
    """

    def __init__(self, program, params: Mapping[str, int]) -> None:
        self.program = program
        fold = Fold(program, params)
        self.params, self.nests, self.sizes = fold.params, fold.nests, fold.sizes
        if len(fold.sizes) > 1 << _AID_BITS or len(fold.refs) > 1 << _REF_BITS:
            raise AnalysisError(
                f"{program.name}: {len(fold.sizes)} arrays / {len(fold.refs)} "
                f"references exceed the trace packing limits "
                f"({1 << _AID_BITS} / {1 << _REF_BITS})"
            )
        self.refs = tuple(RefInfo.of(r) for r in fold.refs)
        self._emitter = _Emitter(fold.sizes)
        self._meta = dict(
            array_names=tuple(a.name for a in program.arrays),
            refs=self.refs,
            array_sizes=tuple(fold.sizes),
        )

    def outer_bounds(self, nest: int) -> Optional[tuple[int, int]]:
        """Inclusive range of the nest's outermost loop — what a schedule
        partitions; ``None`` when the statement is not a loop."""
        node = self.nests[nest]
        if not isinstance(node, FoldedLoop):
            return None
        return at(node.lower, {}), at(node.upper, {})

    def trace(
        self, nest: int, span: Optional[tuple[int, int]] = None
    ) -> AccessTrace:
        node = self.nests[nest]
        return self._emit(node if span is None else _restrict(node, *span))

    def _emit(self, node: FoldedNode) -> AccessTrace:
        elems, writes, refids, field = self._emitter.segment(node)
        aids = field(_AID_SHIFT, _AID_BITS, np.int32)
        return AccessTrace(
            array_ids=aids, elems=elems, writes=writes, ref_ids=refids, **self._meta
        )

    def plan(self) -> list[FoldedNode]:
        """One time step as the consecutive pieces :func:`_pieces` cuts
        every top-level statement into (itself, when it fits)."""
        budget = _stream.CHUNK_ACCESSES
        return [piece for node in self.nests for piece in _pieces(node, {}, budget)]

    def segments(self) -> Iterator[AccessTrace]:
        """The trace of one time step, one segment at a time."""
        yield from map(self._emit, self.plan())

    def address_segments(self, layout, name: str = "trace"):
        """The same segments emitted as byte addresses under ``layout``:
        ``AddressStream.from_trace(segment, layout)``, same errors."""
        placements = [layout.address_map(a.name) for a in self.program.arrays]
        emitter = _Emitter(self.sizes, placements)

        def emit(node) -> AddressStream:
            addresses, writes, refids, _ = emitter.segment(node)
            meta = StreamMeta(name=name, source="codegen", unit="bytes",
                              line_bytes=L2_LINE_BYTES, elem_bytes=ELEM_BYTES)
            return AddressStream(addresses, writes, refids, meta=meta)

        yield from map(emit, self.plan())


def trace_program(
    program, params: Mapping[str, int], steps: int = 1
) -> AccessTrace:
    """The memory access trace of ``program`` at the given size: the
    concatenation of :meth:`NestTracer.segments`.

    Bit-for-bit identical to the Walk oracle :func:`repro.interp.trace_program`
    (pinned by ``tests/codegen``).  The whole trace is kept anyway, so
    one step's segments are emitted once and concatenated ``steps`` times.
    """
    tracer = NestTracer(program, params)
    return concat_traces(list(tracer.segments()) * steps or [tracer._emit(_NOTHING)])
