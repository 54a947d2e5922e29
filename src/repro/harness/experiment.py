"""The measuring chain behind :func:`repro.harness.run`.

:func:`measure_variant` compiles a program at an optimization level,
generates the trace at the chosen size, simulates the scaled memory
hierarchy, and returns one :class:`VariantResult` — the row unit of
every Fig. 10 / §6 table, and the only result record the harness has.
Past the compile it is one chunk loop: the tracer's segments of one
time step, byte addresses under the variant's layout whichever tracer
emits them, are batched and pushed through the hierarchy a chunk of
about ``CHUNK_ACCESSES`` accesses at a time, step after step
(:class:`TimeSteps`), so its memory does not grow with the trace — nor
does a trace cache's, which writes the segments as they pass and
replays them as it reads.  Every step emits the same stream, so a later
step runs only until the hierarchy is back in a state step 1 was in,
and the rest is counted (:func:`simulate_steps`, DESIGN §9.3).  The
whole path is instrumented with :mod:`repro.obs` spans (compile passes,
trace-gen, trace-store / trace-load with a cache, and per-level
simulation stages, one span per stage however many chunks), so a
surrounding :class:`~repro.obs.SpanCollector` sees the full stage tree.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from .. import stream as _stream
from ..core import CompiledVariant, compile_pipeline
from ..engines import EngineSelection, resolve_engines
from ..core.regroup import RegroupOptions
from ..core.regroup.layout import Layout
from ..lang import Program
from ..memsim import (
    MACHINES,
    HierarchyResult,
    MachineConfig,
    MemoryHierarchy,
    MemStats,
    scaled_machine,
    stats_from_hierarchy,
)
from ..memsim.hierarchy import HierarchyRun, Snapshot
from ..obs import ChunkedSpan, SpanEvent, metrics, span
from ..stream import AddressStream, StreamFormatError
from ..stream.io import StreamReader, StreamWriter
from ..verify import PassVerifier
from .cache import TraceCache, layout_fingerprint


@dataclass
class VariantResult:
    """Everything measured for one (program, level) pair."""

    program: str
    level: str
    params: Mapping[str, int]
    stats: MemStats
    variant: Optional[CompiledVariant]
    trace_length: int
    #: per-stage wall-clock seconds (compile, trace-gen, l1, l2, tlb, dram),
    #: each summed over the chunks
    timings: dict = field(default_factory=dict)
    #: wall-clock seconds of the whole measurement (filled by the runner)
    seconds: float = 0.0
    #: observability spans collected over the measurement (serial runs)
    spans: list[SpanEvent] = field(default_factory=list)
    #: metrics-registry delta observed over the measurement
    metrics: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "program": self.program,
            "level": self.level,
            "accesses": self.stats.accesses,
            "l1": self.stats.l1_misses,
            "l2": self.stats.l2_misses,
            "tlb": self.stats.tlb_misses,
            "seconds": self.stats.seconds,
            "bytes": self.stats.data_transferred_bytes,
        }


@contextmanager
def stage_timer(timings: dict, stage: str):
    """Accumulate a block's wall-clock seconds under ``timings[stage]``.

    The benchmark-side counterpart of the stages :func:`measure_variant`
    times internally — e.g. wrap a ``reuse_distances`` pass with
    ``stage_timer(timings, "distance")`` to fill the timing table's
    ``distance`` column.  New code should prefer :func:`repro.obs.span`,
    which feeds the same numbers into structured events.
    """
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


def machine_for(spec) -> MachineConfig:
    """Build the scaled machine for a registry entry's MachineSpec."""
    if isinstance(spec, str):
        return MACHINES[spec]()
    base = MACHINES[spec.base]()
    return scaled_machine(
        base, spec.l1_bytes, spec.l2_bytes, spec.tlb_entries, spec.page_bytes
    )


def _batches(pairs: Iterator, name: str) -> Iterator[tuple[AddressStream, list, list, bool]]:
    """``(segment, begins a step)`` pairs joined into batches of at most
    ``CHUNK_ACCESSES`` accesses (a larger segment alone), each with the
    segments it joins, the in-batch offsets where a step begins, and
    whether it is the last; one empty batch when there is no segment.
    A ``None`` among the pairs ends a batch, and what follows it is
    pulled only when the next batch is asked for."""
    ahead = next(pairs, _DONE)
    if ahead is _DONE:
        yield AddressStream.concat([], name), [], [], True
    while ahead is not _DONE:
        if ahead is None:
            ahead = next(pairs)
        parts, starts, size = [], [], 0
        while isinstance(ahead, tuple) and (
            not parts or size + len(ahead[0]) <= _stream.CHUNK_ACCESSES
        ):
            segment, begins = ahead
            if begins:
                starts.append(size)
            parts.append(segment)
            size += len(segment)
            ahead = next(pairs, _DONE)
        chunk = parts[0] if len(parts) == 1 else AddressStream.concat(parts, name)
        yield chunk, parts, starts, ahead is _DONE


_DONE = object()


def _replay(reader: StreamReader) -> Iterator[AddressStream]:
    """A stored stream's chunks, each decoded when the levels ask for it
    (the ``trace-load`` span)."""
    loading = ChunkedSpan("trace-load")
    chunks = iter(reader)
    for _ in range(reader.nchunks):
        with loading.chunk():
            chunk = next(chunks)
        yield chunk


class TimeSteps:
    """A run's time steps as the chunks the measuring chain consumes.

    ``trace()`` produces one step's segments afresh each call, and every
    step emits the same stream.  A step that fits in one chunk (by
    ``len(segment)``, each segment kind's access count) is traced once
    and replayed from memory, its chunks joining across step
    boundaries; a longer one (:attr:`long`) is traced again each time a
    step is asked for, and a chunk ends where it does.  Iterating yields
    ``(chunk, starts)``, ``starts`` the in-chunk offsets where a step
    begins.  Each chunk is made under the ``trace-gen`` span
    (``accesses=``; ``steps_traced=``, the steps whose accesses went
    out, a replay included) and written to ``sink``, with the segments
    it joins, before it is yielded (the ``trace-store`` span).  Nothing
    outlives its chunk but step 1's first ``CHUNK_ACCESSES`` accesses
    (:attr:`kept`).
    """

    def __init__(self, trace: Callable[[], Iterable[AddressStream]], steps: int,
                 name: str = "trace", sink: Optional[StreamWriter] = None,
                 **attrs: object) -> None:
        self.trace, self.steps, self.name, self.sink = trace, steps, name, sink
        self.span = ChunkedSpan("trace-gen", steps=steps, **attrs,
                                accesses=0, steps_traced=0)
        self.storing = ChunkedSpan("trace-store")
        #: step 1 does not fit in one chunk (known once the first is out)
        self.long = False
        #: step 1's accesses (known once its last chunk is out)
        self.length: Optional[int] = None
        #: step 1's first ``CHUNK_ACCESSES`` accesses: the step's own
        #: segments when it fits, else views of their addresses and
        #: writes up to the bound, what step 2 is probed from
        #: (:func:`simulate_steps`)
        self.kept: list[AddressStream] = []

    def __iter__(self) -> Iterator[tuple[AddressStream, list]]:
        batches = _batches(self._segments(), self.name)
        last = False
        while not last:
            with self.span.chunk() as sp:
                chunk, parts, starts, last = next(batches)
                sp.attrs["accesses"] += len(chunk)
            metrics.inc("trace.accesses", len(chunk))
            if self.sink is not None:
                with self.storing.chunk():
                    self.sink.write(chunk, parts)
            parts.clear()  # while the consumer simulates, only the chunk lives
            yield chunk, starts

    def _segments(self) -> Iterator:
        attrs, chunk = self.span.event.attrs, _stream.CHUNK_ACCESSES
        size, attrs["steps_traced"] = 0, 1
        for at, segment in enumerate(self.trace()):
            if size + len(segment) <= chunk:
                # the segment itself: a sink stores a replayed one once
                self.kept.append(segment)
            elif not self.long:
                self.long = True
                head = [segment.slice(0, chunk - size)] if size < chunk else []
                # all a probe reads: the reference ids are let go
                self.kept = [AddressStream(s.addresses, s.writes) for s in self.kept + head]
            size += len(segment)
            yield segment, at == 0
        self.length = size
        for _ in range(1, self.steps):
            if self.long:
                yield None  # the step ends its last chunk
            attrs["steps_traced"] += 1
            for at, segment in enumerate(self.trace() if self.long else self.kept):
                yield segment, at == 0


def _offsets() -> list[int]:
    """The in-step offsets where a step longer than one chunk is
    snapshotted besides its chunk ends: ``CHUNK_ACCESSES`` / 16, / 8,
    / 4 and / 2, and the end of its kept prefix, ``CHUNK_ACCESSES``."""
    return [_stream.CHUNK_ACCESSES >> k for k in (4, 3, 2, 1, 0)]


def simulate_steps(
    machine: MachineConfig,
    source: TimeSteps,
    engine: Optional[str] = None,
    timings: Optional[dict] = None,
) -> HierarchyResult:
    """Simulate ``source``'s time steps on ``machine``, counting what
    repeats step 1 instead of simulating it (DESIGN §9.3).

    Every level is deterministic, so once the caches stand at in-step
    offset c of step 2 in the state step 1 was in at c, and the TLB has
    passed its own τ, the rest of the run repeats step 1
    (:meth:`~repro.memsim.hierarchy.HierarchyRun.result` counts it).  A
    step that fits in one chunk is simulated in full, its chunks
    straddling steps; only the TLB stops early.  A longer step 1 is
    snapshotted at its chunk ends and at :func:`_offsets`; step 2 is
    probed from step 1's first ``CHUNK_ACCESSES`` accesses
    (:attr:`TimeSteps.kept`), the TLB over its warm-up only, and
    compared at each of those offsets it reaches.  Without a match
    there, step 2 is traced again, the probe's accesses skipped, and
    compared at step 1's chunk ends; without one at all, every access
    is simulated.  With a sink the stream is traced to its end and written
    all the same, and nothing more is simulated.
    """
    run = MemoryHierarchy(machine).start(engine)
    chunks = iter(source)
    repeat = _repeat(run, chunks, source)
    if source.sink is not None:
        deque(chunks, maxlen=0)
    return run.result(source.steps, repeat, timings)


def _repeat(
    run: HierarchyRun, chunks: Iterator, source: TimeSteps
) -> Optional[tuple[Snapshot, Snapshot]]:
    """Feed ``chunks`` to ``run`` until step 2 repeats step 1: then step
    1's snapshots at its end and at the offset step 2 matched; None once
    every chunk is simulated."""
    chunk, starts = next(chunks)
    if source.steps == 1 or not source.long:
        run.feed(chunk.addresses, chunk.writes, starts)
        for chunk, starts in chunks:
            run.feed(chunk.addresses, chunk.writes, starts)
        return None
    marks, at = {}, 0
    while True:  # step 1
        lo = 0
        for hi in [*(c - at for c in _offsets() if 0 < c - at < len(chunk)), len(chunk)]:
            run.caches(chunk.addresses[lo:hi], chunk.writes[lo:hi])
            marks[at + hi] = run.snapshot()
            lo = hi
        run.translate(chunk.addresses, starts)
        at += len(chunk)
        if at == source.length:
            break
        chunk, starts = next(chunks)
    end = marks[at]

    def repeats(offset: int) -> bool:
        return run.settled and run.snapshot().same_state(marks[offset])

    kept, source.kept = source.kept, []  # step 2, probed
    probed = sum(map(len, kept))
    warmup, _ = _joined(kept, 0, min(probed, run.warmup))  # the TLB's
    run.translate(warmup, [0])
    lo = 0
    for hi in [c for c in marks if c <= probed]:
        run.caches(*_joined(kept, lo, hi))
        lo = hi
        if repeats(hi):
            metrics.inc("steps.probe.matched")
            return end, marks[hi]
    del kept, warmup
    metrics.inc("steps.fallback")
    at = 0  # step 2 on, traced again; the probe's accesses skipped
    for chunk, starts in chunks:
        skip = min(len(chunk), max(0, probed - at))
        at += len(chunk)
        if skip < len(chunk):
            run.feed(chunk.addresses[skip:], chunk.writes[skip:],
                     [s - skip for s in starts if s >= skip])
            if at in marks and repeats(at):  # marks end at step 2's end
                return end, marks[at]
    return None


def _joined(segments: list, lo: int, hi: int) -> tuple:
    """The addresses and writes of the accesses [lo, hi) of ``segments``
    joined, a view when one segment holds them: a piece of the probe
    costs one call per level and a copy of at most itself."""
    addresses, writes, at = [], [], 0
    for segment in segments:
        if at < hi and lo < at + len(segment):
            addresses.append(segment.addresses[max(lo - at, 0) : hi - at])
            writes.append(segment.writes[max(lo - at, 0) : hi - at])
        at += len(segment)
    if len(addresses) == 1:
        return addresses[0], writes[0]
    if not addresses:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    return np.concatenate(addresses), np.concatenate(writes)


def variant_steps(
    variant: CompiledVariant,
    params: Mapping[str, int],
    steps: int = 1,
    engine: Union[None, str, EngineSelection] = None,
    name: Optional[str] = None,
    layout: Optional[Layout] = None,
    sink: Optional[StreamWriter] = None,
) -> TimeSteps:
    """The producer half of the measuring chain: a compiled variant's
    :class:`TimeSteps`, the ``address_segments`` of the tracer
    ``engine`` selects, one step per call, under ``layout`` (default:
    the variant's own at ``params``).  Iterated whole it yields every
    step's chunks; :func:`simulate_steps` stops where the rest repeats
    step 1."""
    selection = resolve_engines(engine)
    if layout is None:
        layout = variant.layout(params)
    label = name or variant.program.name
    names = [a.name for a in variant.program.arrays]
    metrics.inc("trace.generated")
    return TimeSteps(
        lambda: selection.address_segments(variant.program, params, layout, label),
        steps, label, sink, tracer=selection.tracer, divmods=layout.divmods(names),
    )


def measure_variant(
    program: Program,
    level: str,
    params: Mapping[str, int],
    machine: MachineConfig,
    steps: int = 1,
    name: Optional[str] = None,
    regroup_options: Optional[RegroupOptions] = None,
    engine: Union[None, str, EngineSelection] = None,
    cache: Optional[TraceCache] = None,
    verify: Union[bool, PassVerifier] = False,
    result_cache: bool = True,
    pipeline: Optional[object] = None,
) -> VariantResult:
    """Compile at ``level``, trace, and simulate one program variant.

    One chain: compile, then one chunk loop — :func:`variant_steps`
    through :func:`simulate_steps`, so a later time step is simulated
    only until the hierarchy is back in a state of step 1's (DESIGN
    §9.3).  With a ``cache`` the loop writes each segment of every step
    to the stored stream as it goes (:meth:`TraceCache.trace_writer`),
    and a later call replays the stored stream instead, decoding it a
    chunk at a time as the levels consume it, every access simulated
    (:meth:`TraceCache.replay_trace`); an entry found damaged midway is
    traced and written again.

    ``engine`` is a spec per :func:`repro.engines.resolve_engines`: a
    simulation engine (``"fast"``/``"reference"``), a tracer
    (``"codegen"``/``"interp"``), or both (``"fast+interp"``).  ``cache``
    replays address streams — and whole results, when the machine and
    simulation engine also match — from disk instead of re-tracing
    (tracers produce bit-identical traces, so trace/result entries are
    shared across them); ``result_cache=False``
    keeps the trace cache but always re-simulates (benchmarking).
    ``verify`` threads a pass-legality check through
    :func:`~repro.core.compile_pipeline` (True, or a
    :class:`~repro.verify.PassVerifier` whose history the caller wants).
    ``pipeline`` overrides ``level`` for compilation: a registered
    pipeline name, a pass-name sequence, or a
    :class:`~repro.core.PipelineSpec` (``level`` stays the row label).
    Per-stage seconds land in :attr:`VariantResult.timings`;
    ``timings["compile"]`` is what *this* call spent — passes an earlier
    call on the same ``program`` object already ran cost it nothing, and
    the ``compile`` span's ``passes_run`` / ``shared_steps`` say so.
    """
    selection = resolve_engines(engine)
    label = name or program.name
    timings: dict[str, float] = {}
    with span("compile", level=level) as sp:
        variant = compile_pipeline(
            program,
            level if pipeline is None else pipeline,
            regroup_options=regroup_options,
            verify=verify,
        )
        # a compile of ~0 s is one that found every pass already run
        sp.attrs["passes_run"] = variant.passes_run
        sp.attrs["shared_steps"] = variant.shared_steps
    timings["compile"] = sp.duration_s
    layout = variant.layout(params)

    def _result(stats: MemStats, trace_length: int) -> VariantResult:
        return VariantResult(
            program=label,
            level=level,
            params=dict(params),
            stats=stats,
            variant=variant,
            trace_length=trace_length,
            timings=timings,
        )

    outcome = None
    if cache is not None:
        tkey = cache.trace_key(
            str(variant.program), params, steps, layout_fingerprint(layout)
        )
        rkey = cache.result_key(tkey, machine, selection.sim)
        if result_cache:
            stats = cache.load_result(rkey)
            if stats is not None:
                return _result(stats, stats.accesses)
        reader = cache.replay_trace(tkey)
        if reader is not None:
            try:
                with reader:
                    outcome = MemoryHierarchy(machine).simulate_chunks(
                        ((c.addresses, c.writes) for c in _replay(reader)),
                        selection.sim,
                        timings,
                    )
            except StreamFormatError:
                pass  # damaged past its header: trace and rewrite it after all
    if outcome is None:
        with nullcontext() if cache is None else cache.trace_writer(tkey) as sink:
            source = variant_steps(variant, params, steps, selection, label, layout, sink)
            outcome = simulate_steps(machine, source, selection.sim, timings)
        timings["trace-gen"] = source.span.duration_s
    stats = stats_from_hierarchy(outcome, machine)
    if cache is not None and result_cache:
        cache.store_result(rkey, stats)
    return _result(stats, outcome.accesses)
