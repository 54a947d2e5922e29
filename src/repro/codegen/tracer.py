"""Whole-nest vectorized trace generation (the codegen trace backend).

The interpreter-based generator (:mod:`repro.interp.tracegen`) walks
outer loops in Python and vectorizes only the innermost level.  This
backend removes Python-per-iteration work at *every* level: a loop nest
is lowered bottom-up into *blocks* over instance frames.

A *frame* maps each live loop variable to an int64 array holding its
value for every instance of the enclosing iteration space, in execution
order.  Emitting a node against a frame of ``p`` instances yields either

* a **uniform** block — every instance contributes the same column
  pattern, so element indices live in a ``(p, l)`` matrix and the
  per-access metadata is a single length-``l`` row.  Collapsing a
  rectangular loop is then just a reshape, and merging sibling
  statements an ``hstack``; or
* a **grouped** block — per-instance access counts vary (guards,
  triangular bounds), stored flat with a ``counts`` vector and merged
  by scatter on computed destination offsets.

Per-access metadata (write flag, array id, ref id) is packed into one
int64 so every structural merge touches two arrays instead of four.
Top-level nests are emitted as the segments of the shared plan
(:meth:`repro.interp.tracegen.NestTracer.segments`): a time step that
fits in one chunk is emitted once and replayed, a larger one again each
step, its big nests in pieces.

The input is the interpreter tracer's own lowering
(:class:`repro.interp.tracegen._Compiler`): integer address records with
the parameters folded in, so everything outside the supported subset has
already been rejected there with an :class:`~repro.lang.AnalysisError`,
for both tracers alike.  There is no second path to fall back to, and
no instruction-id mode: every caller that wants dynamic instruction ids
asks :func:`repro.interp.trace_program` for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from ..interp import tracegen as _tg
from ..interp.trace import AccessTrace, concat_traces
from ..lang import AnalysisError
from ..obs import metrics

_AID_SHIFT, _AID_BITS = 1, 12
_REF_SHIFT, _REF_BITS = 13, 19


@dataclass
class _Uniform:
    """Every instance emits the same columns: elems[(instance, column)]."""

    p: int
    elems: np.ndarray  # (p, l) int64
    pattern: np.ndarray  # (l,) packed write|aid|ref


@dataclass
class _Grouped:
    """Variable per-instance counts; data flat, grouped by instance."""

    p: int
    counts: np.ndarray  # (p,) int64
    elems: np.ndarray  # flat int64
    pattern: np.ndarray  # flat int64


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
        np.tile(b.pattern, b.p),
    )


class _Emitter:
    def __init__(self, sizes) -> None:
        self.sizes = sizes
        self._pattern_cache: dict[int, np.ndarray] = {}

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
        if isinstance(node, _tg._CAssign):
            return self._emit_assign(node, frame, p)
        if isinstance(node, _tg._CLoop):
            return self._emit_loop(node, frame, p)
        return self._emit_guard(node, frame, p)

    def emit_body(self, nodes, frame, p: int):
        return self._merge_body([self.emit(n, frame, p) for n in nodes], p)

    def _emit_assign(self, node: _tg._CAssign, frame, p: int) -> _Uniform:
        length = len(node.refs)
        pattern = self._pattern_cache.get(id(node))
        if pattern is None:
            pattern = np.asarray(
                [
                    int(ref.is_write)
                    | (ref.array_id << _AID_SHIFT)
                    | (ref.ref_id << _REF_SHIFT)
                    for ref in node.refs
                ],
                dtype=np.int64,
            )
            self._pattern_cache[id(node)] = pattern
        elems = np.empty((p, length), np.int64)
        for c, ref in enumerate(node.refs):
            v = self._value(ref.linform, frame)
            elems[:, c] = v
            if p == 0:
                continue
            lo, hi = (v, v) if isinstance(v, int) else (int(v.min()), int(v.max()))
            size = self.sizes[ref.array_id]
            if lo < 0 or hi >= size:
                raise AnalysisError(
                    f"out-of-bounds access: element {lo if lo < 0 else hi} of "
                    f"array #{ref.array_id} (size {size})"
                )
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
                np.concatenate([b.pattern for b in blocks]),
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

    def _emit_loop(self, node: _tg._CLoop, frame, p: int):
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
                    p, b.elems.reshape(p, trip * length), np.tile(b.pattern, trip)
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
                np.tile(b.pattern, total),
            )
        parent = np.repeat(np.arange(p, dtype=np.int64), trips)
        counts = np.bincount(parent, weights=b.counts, minlength=p).astype(np.int64)
        return _Grouped(p, counts, b.elems, b.pattern)

    def _emit_guard(self, node: _tg._CGuard, frame, p: int):
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


def _flatten(block):
    """Unpack one top-level block (p == 1) into trace-ready arrays."""
    if isinstance(block, _Uniform):
        elems = np.ascontiguousarray(block.elems).reshape(-1)
    else:
        elems = block.elems
    pattern = block.pattern
    aids = ((pattern >> _AID_SHIFT) & ((1 << _AID_BITS) - 1)).astype(np.int32)
    refids = (pattern >> _REF_SHIFT).astype(np.int32)
    writes = (pattern & 1).astype(bool)
    return aids, elems, writes, refids


class NestTracer(_tg.NestTracer):
    """The codegen twin of :class:`repro.interp.tracegen.NestTracer`:
    the same lowering, plan and segments (restricted copies of top-level
    nests), each emitted as whole-nest numpy blocks."""

    def __init__(self, program, params: Mapping[str, int]) -> None:
        super().__init__(program, params)
        compiler = self.compiler
        if len(compiler.sizes) > 1 << _AID_BITS or len(compiler.refs) > 1 << _REF_BITS:
            raise AnalysisError(
                f"{program.name}: {len(compiler.sizes)} arrays / {len(compiler.refs)} "
                f"references exceed the trace packing limits "
                f"({1 << _AID_BITS} / {1 << _REF_BITS})"
            )
        self._emitter = _Emitter(compiler.sizes)
        self._meta = dict(
            array_names=tuple(a.name for a in program.arrays),
            refs=tuple(compiler.refs),
            array_sizes=tuple(compiler.sizes),
        )

    def _emit(self, node, gen=None) -> AccessTrace:
        aids, elems, writes, refids = _flatten(self._emitter.emit(node, {}, 1))
        metrics.inc("codegen.trace.nests")
        metrics.inc("codegen.trace.nests.compiled")
        return AccessTrace(
            array_ids=aids, elems=elems, writes=writes, ref_ids=refids, **self._meta
        )

    def segments(self, steps: int = 1) -> Iterator[AccessTrace]:
        """The trace of ``steps`` time steps, one segment at a time."""
        return self._steps(steps, self._emit, replay=True)


def trace_program(
    program, params: Mapping[str, int], steps: int = 1
) -> AccessTrace:
    """Codegen twin of :func:`repro.interp.tracegen.trace_program`.

    Bit-for-bit identical output (pinned by ``tests/codegen``) on the
    same lowering, hence the same supported input and the same errors;
    likewise the concatenation of :meth:`NestTracer.segments`.  The
    whole trace is kept anyway, so one step's segments are emitted once
    and concatenated ``steps`` times.
    """
    tracer = NestTracer(program, params)
    segments = list(tracer.segments()) * steps
    return concat_traces(segments) if segments else tracer.generator().take()
