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

Per-access metadata (write flag, array id, ref id, and — when requested
— the instruction offset within the instance) is packed into one int64
so every structural merge touches two arrays instead of five.  The
whole body is emitted once and tiled across time steps.

Any construct outside the supported subset makes that *top-level nest*
(not the whole program) fall back to the interpreter-based generator,
sharing the same :class:`~repro.interp.trace.TraceBuilder` so the
stream stays in execution order; ``codegen.trace.*`` metrics record the
split and the fallback reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..interp import tracegen as _tg
from ..interp.state import check_params
from ..interp.trace import AccessTrace
from ..obs import metrics
from .lowering import CodegenUnsupported, int_affine

_AID_SHIFT, _AID_BITS = 1, 12
_REF_SHIFT, _REF_BITS = 13, 19
_IOFS_SHIFT = 32
#: per-nest instruction budget so packed instruction offsets cannot wrap
_MAX_ICOUNT = 1 << 30


@dataclass
class _Uniform:
    """Every instance emits the same columns: elems[(instance, column)]."""

    p: int
    elems: np.ndarray  # (p, l) int64
    pattern: np.ndarray  # (l,) packed write|aid|ref|iofs
    icount: int  # instructions per instance


@dataclass
class _Grouped:
    """Variable per-instance counts; data flat, grouped by instance."""

    p: int
    counts: np.ndarray  # (p,) int64
    icounts: np.ndarray  # (p,) int64
    elems: np.ndarray  # flat int64
    pattern: np.ndarray  # flat int64


def _empty(p: int) -> _Uniform:
    return _Uniform(p, np.empty((p, 0), np.int64), np.empty(0, np.int64), 0)


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
        np.full(b.p, b.icount, np.int64),
        np.ascontiguousarray(b.elems).reshape(-1),
        np.tile(b.pattern, b.p),
    )


class _Emitter:
    def __init__(self, compiler: _tg._Compiler, with_instr: bool) -> None:
        self.sizes = compiler.sizes
        self.params = compiler.params
        self.with_instr = with_instr
        self._lin_cache: dict[int, tuple[int, tuple[tuple[str, int], ...]]] = {}
        self._pattern_cache: dict[int, np.ndarray] = {}

    # -- affine evaluation over frames --------------------------------------

    def _value(self, form, frame: Mapping[str, np.ndarray], key=None):
        """Evaluate an affine form; int scalar when frame-independent."""
        folded = self._lin_cache.get(key) if key is not None else None
        if folded is None:
            folded = int_affine(form, self.params)
            if key is not None:
                self._lin_cache[key] = folded
        const, terms = folded
        out = None
        for name, coeff in terms:
            arr = frame.get(name)
            if arr is None:
                raise CodegenUnsupported(f"unbound loop variable {name!r}")
            term = arr * coeff
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
        if isinstance(node, _tg._CGuard):
            return self._emit_guard(node, frame, p)
        raise CodegenUnsupported(f"cannot lower {type(node).__name__}")

    def emit_body(self, nodes, frame, p: int):
        return self._merge_body([self.emit(n, frame, p) for n in nodes], p)

    def _emit_assign(self, node: _tg._CAssign, frame, p: int) -> _Uniform:
        length = len(node.refs)
        pattern = self._pattern_cache.get(id(node))
        if pattern is None:
            packed = []
            for ref in node.refs:
                if ref.array_id >= (1 << _AID_BITS) or ref.ref_id >= (1 << _REF_BITS):
                    raise CodegenUnsupported("too many arrays/references to pack")
                packed.append(
                    int(ref.is_write)
                    | (ref.array_id << _AID_SHIFT)
                    | (ref.ref_id << _REF_SHIFT)
                )
            pattern = np.asarray(packed, dtype=np.int64)
            self._pattern_cache[id(node)] = pattern
        elems = np.empty((p, length), np.int64)
        for c, ref in enumerate(node.refs):
            v = self._value(ref.linform, frame, key=ref.ref_id)
            elems[:, c] = v
            if p == 0:
                continue
            lo, hi = (v, v) if isinstance(v, int) else (int(v.min()), int(v.max()))
            size = self.sizes[ref.array_id]
            if lo < 0 or hi >= size:
                from ..lang import AnalysisError

                raise AnalysisError(
                    f"out-of-bounds access: element {lo if lo < 0 else hi} of "
                    f"array #{ref.array_id} (size {size})"
                )
        return _Uniform(p, elems, pattern, 1)

    def _merge_body(self, blocks, p: int):
        if not blocks:
            return _empty(p)
        if len(blocks) == 1:
            return blocks[0]
        if all(isinstance(b, _Uniform) for b in blocks):
            mats, pats, ishift = [], [], 0
            for b in blocks:
                mats.append(b.elems)
                if self.with_instr and ishift:
                    pats.append(b.pattern + (ishift << _IOFS_SHIFT))
                else:
                    pats.append(b.pattern)
                ishift += b.icount
            return _Uniform(p, np.hstack(mats), np.concatenate(pats), ishift)
        gs = [_to_grouped(b) for b in blocks]
        counts = np.zeros(p, np.int64)
        icounts = np.zeros(p, np.int64)
        for g in gs:
            counts += g.counts
            icounts += g.icounts
        total = int(counts.sum())
        elems = np.empty(total, np.int64)
        pattern = np.empty(total, np.int64)
        starts = np.cumsum(counts) - counts
        placed = np.zeros(p, np.int64)
        iplaced = np.zeros(p, np.int64)
        for g in gs:
            n = len(g.elems)
            dest = np.repeat(starts + placed, g.counts) + _intra(g.counts, n)
            elems[dest] = g.elems
            if self.with_instr:
                pattern[dest] = g.pattern + (
                    np.repeat(iplaced, g.counts) << _IOFS_SHIFT
                )
            else:
                pattern[dest] = g.pattern
            placed += g.counts
            iplaced += g.icounts
        return _Grouped(p, counts, icounts, elems, pattern)

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
                if trip * b.icount >= _MAX_ICOUNT:
                    raise CodegenUnsupported("instruction-offset packing overflow")
                length = b.elems.shape[1]
                pattern = np.tile(b.pattern, trip)
                if self.with_instr and b.icount and length:
                    pattern += (
                        np.repeat(
                            np.arange(trip, dtype=np.int64) * b.icount, length
                        )
                        << _IOFS_SHIFT
                    )
                return _Uniform(
                    p, b.elems.reshape(p, trip * length), pattern, trip * b.icount
                )
            counts = b.counts.reshape(p, trip).sum(axis=1)
            icounts = b.icounts.reshape(p, trip).sum(axis=1)
            if int(icounts.max(initial=0)) >= _MAX_ICOUNT:
                raise CodegenUnsupported("instruction-offset packing overflow")
            pattern = b.pattern
            if self.with_instr:
                ic = b.icounts.reshape(p, trip)
                shifts = (np.cumsum(ic, axis=1) - ic).reshape(-1)
                pattern = pattern + (np.repeat(shifts, b.counts) << _IOFS_SHIFT)
            return _Grouped(p, counts, icounts, b.elems, pattern)
        # data-dependent (e.g. triangular) bounds: per-instance trip counts
        lo_a = np.broadcast_to(np.asarray(lo, np.int64), (p,))
        hi_a = np.broadcast_to(np.asarray(hi, np.int64), (p,))
        trips = np.maximum(hi_a - lo_a + 1, 0)
        total = int(trips.sum())
        if total == 0:
            return _empty(p)
        intra = _intra(trips, total)
        sub = {v: np.repeat(a, trips) for v, a in frame.items()}
        sub[node.index] = np.repeat(lo_a, trips) + intra
        b = self.emit_body(node.body, sub, total)
        if isinstance(b, _Uniform):
            length = b.elems.shape[1]
            counts = trips * length
            icounts = trips * b.icount
            if int(icounts.max(initial=0)) >= _MAX_ICOUNT:
                raise CodegenUnsupported("instruction-offset packing overflow")
            pattern = np.tile(b.pattern, total)
            if self.with_instr and b.icount and length:
                pattern += (np.repeat(intra * b.icount, length) << _IOFS_SHIFT)
            return _Grouped(
                p, counts, icounts,
                np.ascontiguousarray(b.elems).reshape(-1), pattern,
            )
        parent = np.repeat(np.arange(p, dtype=np.int64), trips)
        counts = np.bincount(parent, weights=b.counts, minlength=p).astype(np.int64)
        icounts = np.bincount(parent, weights=b.icounts, minlength=p).astype(np.int64)
        if int(icounts.max(initial=0)) >= _MAX_ICOUNT:
            raise CodegenUnsupported("instruction-offset packing overflow")
        pattern = b.pattern
        if self.with_instr:
            g = np.cumsum(b.icounts) - b.icounts
            parent_base = np.cumsum(icounts) - icounts
            shifts = g - np.repeat(parent_base, trips)
            pattern = pattern + (np.repeat(shifts, b.counts) << _IOFS_SHIFT)
        return _Grouped(p, counts, icounts, b.elems, pattern)

    def _emit_guard(self, node: _tg._CGuard, frame, p: int):
        v = frame.get(node.index)
        if v is None:
            raise CodegenUnsupported(f"guard on unbound index {node.index!r}")
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
        icounts = np.empty(p, np.int64)
        counts[mask] = bt.counts
        counts[inv] = bf.counts
        icounts[mask] = bt.icounts
        icounts[inv] = bf.icounts
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
        return _Grouped(p, counts, icounts, elems, pattern)


def _flatten(block, with_instr: bool):
    """Unpack one top-level block (p == 1) into trace-ready arrays."""
    if isinstance(block, _Uniform):
        elems = np.ascontiguousarray(block.elems).reshape(-1)
        pattern = block.pattern
        icount = block.icount
    else:
        elems = block.elems
        pattern = block.pattern
        icount = int(block.icounts.sum())
    aids = ((pattern >> _AID_SHIFT) & ((1 << _AID_BITS) - 1)).astype(np.int32)
    refids = ((pattern >> _REF_SHIFT) & ((1 << _REF_BITS) - 1)).astype(np.int32)
    writes = (pattern & 1).astype(bool)
    iofs = (pattern >> _IOFS_SHIFT) if with_instr else None
    return aids, elems, writes, refids, iofs, icount


def trace_program(
    program,
    params: Mapping[str, int],
    steps: int = 1,
    with_instr: bool = False,
) -> AccessTrace:
    """Codegen twin of :func:`repro.interp.tracegen.trace_program`.

    Bit-for-bit identical output (pinned by ``tests/codegen``); any
    unsupported top-level nest falls back to the interpreter-based
    generator in place, preserving stream order.
    """
    bound = check_params(program, params)
    compiler = _tg._Compiler(program, bound)
    compiled = compiler.compile_body(program.body)
    emitter = _Emitter(compiler, with_instr)
    gen = _tg._Generator(compiled, compiler, with_instr)
    gen.env.update(bound)
    builder = gen.builder

    lowered: list[tuple[object, Optional[tuple]]] = []
    fallbacks: list[str] = []
    for node in compiled:
        try:
            lowered.append((node, _flatten(emitter.emit(node, {}, 1), with_instr)))
        except CodegenUnsupported as exc:
            lowered.append((node, None))
            fallbacks.append(exc.reason)
    metrics.inc("codegen.trace.nests", len(lowered))
    metrics.inc("codegen.trace.nests.compiled", len(lowered) - len(fallbacks))
    if fallbacks:
        metrics.inc("codegen.trace.nests.fallback", len(fallbacks))
        for reason in set(fallbacks):
            metrics.inc(f"codegen.trace.fallback[{reason}]")

    for _ in range(steps):
        for node, flat in lowered:
            if flat is None:
                gen.run_node(node)
                continue
            gen._flush()  # keep any buffered scalar accesses ordered first
            aids, elems, writes, refids, iofs, icount = flat
            instr = None
            if with_instr:
                instr = iofs + builder.instr_count
                builder.instr_count += icount
            builder.append(aids, elems, writes, refids, instr)
    return gen.finish()
