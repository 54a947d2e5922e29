"""The measuring chain behind :func:`repro.harness.run`.

:func:`measure_variant` compiles a program at an optimization level,
generates the trace at the chosen size, simulates the scaled memory
hierarchy, and returns one :class:`VariantResult` — the row unit of
every Fig. 10 / §6 table, and the only result record the harness has.
Past the compile it is one chunk loop: the tracer's segments, byte
addresses under the variant's layout whichever tracer emits them, are
batched and pushed through the hierarchy a chunk of about
``CHUNK_ACCESSES`` accesses at a time (:func:`variant_chunks`), so its
memory does not grow with the trace — nor does a trace cache's, which
writes the segments as they pass and replays them as it reads.  The
whole path is instrumented with :mod:`repro.obs` spans (compile passes,
trace-gen, trace-store / trace-load with a cache, and per-level
simulation stages, one span per stage however many chunks), so a
surrounding :class:`~repro.obs.SpanCollector` sees the full stage tree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

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


def _batches(
    selection: EngineSelection, program: Program, params, steps: int, layout, name
) -> Iterator[tuple[AddressStream, list, bool]]:
    """The selected tracer's segments as address streams under
    ``layout``, joined into batches of at most ``CHUNK_ACCESSES``
    accesses (a larger segment alone), each with the segments it joins
    and whether it is the last; one empty batch when there is no
    segment.  A batch keeps its segments' step marks, at their offsets
    in the batch."""
    segments = selection.address_segments(program, params, steps, layout, name)
    ahead = next(segments, None)
    if ahead is None:
        yield AddressStream.concat([], name), [], True
    while ahead is not None:
        pieces, size = [], 0
        while ahead is not None and (
            not pieces or size + len(ahead) <= _stream.CHUNK_ACCESSES
        ):
            pieces.append(ahead)
            size += len(ahead)
            ahead = next(segments, None)
        chunk = pieces[0] if len(pieces) == 1 else AddressStream.concat(pieces, name)
        yield chunk, pieces, ahead is None


def _replay(reader: StreamReader) -> Iterator[AddressStream]:
    """A stored stream's chunks, each decoded when the levels ask for it
    (the ``trace-load`` span)."""
    loading = ChunkedSpan("trace-load")
    chunks = iter(reader)
    for _ in range(reader.nchunks):
        with loading.chunk():
            chunk = next(chunks)
        yield chunk


def variant_chunks(
    variant: CompiledVariant,
    params: Mapping[str, int],
    steps: int = 1,
    engine: Union[None, str, EngineSelection] = None,
    name: Optional[str] = None,
    layout: Optional[Layout] = None,
    timings: Optional[dict] = None,
    sink: Optional[StreamWriter] = None,
) -> Iterator[AddressStream]:
    """Trace a compiled variant as byte addresses, one chunk at a time.

    The producer half of the measuring chain: the ``address_segments``
    of the tracer ``engine`` selects, under ``layout`` (default: the
    variant's own at ``params``), in batches of about
    ``CHUNK_ACCESSES``.  ``sink`` is written every chunk, with the
    segments it joins, before the chunk is yielded (the ``trace-store``
    span), so a stream is stored as it is simulated.  Each chunk's
    :attr:`~repro.stream.AddressStream.step_starts` are the in-chunk
    offsets where a time step begins; the stored stream does not keep
    them.  Nothing outlives its chunk.  One span per stage covers every chunk
    (``chunks=``) and adds to ``timings``.
    """
    selection = resolve_engines(engine)
    if layout is None:
        layout = variant.layout(params)
    label = name or variant.program.name
    names = [a.name for a in variant.program.arrays]
    tracing = ChunkedSpan("trace-gen", steps=steps, tracer=selection.tracer,
                          accesses=0, divmods=layout.divmods(names))
    storing = ChunkedSpan("trace-store")
    metrics.inc("trace.generated")
    batches = _batches(selection, variant.program, params, steps, layout, label)
    last = False
    while not last:
        with tracing.chunk() as sp:
            chunk, parts, last = next(batches)
            sp.attrs["accesses"] += len(chunk)
        metrics.inc("trace.accesses", len(chunk))
        if sink is not None:
            with storing.chunk():
                sink.write(chunk, parts)
        parts.clear()  # while the consumer simulates, only the chunk lives
        yield chunk
    if timings is not None:
        timings["trace-gen"] = timings.get("trace-gen", 0.0) + tracing.duration_s


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

    One chain: compile, then one chunk loop — :func:`variant_chunks`
    through :meth:`~repro.memsim.MemoryHierarchy.simulate_chunks`, step
    marks included, so the TLB simulates later time steps only up to
    where they forget their start (DESIGN §9.3).  With
    a ``cache`` the loop writes each segment to the stored stream as it
    goes (:meth:`TraceCache.trace_writer`), and a later call replays the
    stored stream instead, decoding it a chunk at a time as the levels
    consume it (:meth:`TraceCache.replay_trace`); an entry found damaged
    midway is traced and written again.

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

    def simulate(chunks: Iterator[AddressStream]) -> HierarchyResult:
        return MemoryHierarchy.standard(machine).simulate_chunks(
            ((c.addresses, c.writes, c.step_starts) for c in chunks),
            engine=selection.sim,
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
                    outcome = simulate(_replay(reader))
            except StreamFormatError:
                pass  # damaged past its header: trace and rewrite it after all
    if outcome is None:
        with nullcontext() if cache is None else cache.trace_writer(tkey) as sink:
            outcome = simulate(variant_chunks(
                variant, params, steps, selection, label, layout, timings, sink
            ))
    stats = stats_from_hierarchy(outcome, machine)
    if cache is not None and result_cache:
        cache.store_result(rkey, stats)
    return _result(stats, outcome.accesses)
