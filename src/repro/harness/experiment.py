"""The measuring chain behind :func:`repro.harness.run`.

:func:`measure_variant` compiles a program at an optimization level,
generates the trace at the chosen size, simulates the scaled memory
hierarchy, and returns one :class:`VariantResult` — the row unit of
every Fig. 10 / §6 table, and the only result record the harness has.
Past the compile it is one chunk loop: the tracer's segments are
batched, laid out and pushed through the hierarchy a chunk of about
``CHUNK_ACCESSES`` accesses at a time (:func:`variant_chunks`), so its
memory does not grow with the trace.  The whole path is instrumented
with :mod:`repro.obs` spans (compile passes, trace-gen, addresses,
per-level simulation stages — one span per stage, however many
chunks), so a surrounding :class:`~repro.obs.SpanCollector` sees the
full stage tree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

from ..core import CompiledVariant, compile_pipeline
from ..engines import EngineSelection, resolve_engines
from ..core.regroup import RegroupOptions
from ..core.regroup.layout import Layout
from ..interp import trace as _trace
from ..interp.trace import AccessTrace, concat_traces
from ..lang import Program
from ..memsim import (
    MACHINES,
    MachineConfig,
    MemoryHierarchy,
    MemStats,
    scaled_machine,
    stats_from_hierarchy,
)
from ..obs import ChunkedSpan, SpanEvent, metrics, span
from ..stream import AddressStream
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
    #: per-stage wall-clock seconds (compile, trace-gen, addresses, l1,
    #: l2, tlb, dram), each summed over the chunks
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
    selection: EngineSelection, program: Program, params, steps: int
) -> Iterator[tuple[AccessTrace, bool]]:
    """The selected tracer's segments in batches of at most
    ``CHUNK_ACCESSES`` accesses (a larger segment alone), each with
    whether it is the last; one empty batch when there is no segment."""
    tracer = selection.nest_tracer(program, params)
    segments = tracer.segments(steps)
    ahead = next(segments, None)
    if ahead is None:
        yield tracer.generator().take(), True
    while ahead is not None:
        pieces, size = [], 0
        while ahead is not None and (
            not pieces or size + len(ahead) <= _trace.CHUNK_ACCESSES
        ):
            pieces.append(ahead)
            size += len(ahead)
            ahead = next(segments, None)
        yield concat_traces(pieces), ahead is None


def variant_chunks(
    variant: CompiledVariant,
    params: Mapping[str, int],
    steps: int = 1,
    engine: Union[None, str, EngineSelection] = None,
    name: Optional[str] = None,
    layout: Optional[Layout] = None,
    timings: Optional[dict] = None,
) -> Iterator[AddressStream]:
    """Trace a compiled variant and lay it out, one chunk at a time.

    The producer half of the measuring chain: the segments of the
    tracer ``engine`` selects, batched to about ``CHUNK_ACCESSES``
    accesses and laid out as byte addresses under ``layout`` (default:
    the variant's own at ``params``).  Nothing outlives its chunk.  One
    ``trace-gen`` and one ``addresses`` span cover every chunk
    (``chunks=``); their seconds accumulate into ``timings``.
    """
    selection = resolve_engines(engine)
    if layout is None:
        layout = variant.layout(params)
    label = name or variant.program.name
    names = [a.name for a in variant.program.arrays]
    tracing = ChunkedSpan("trace-gen", steps=steps, tracer=selection.tracer)
    laying = ChunkedSpan("addresses", accesses=0, divmods=layout.divmods(names))
    metrics.inc("trace.generated")
    batches = _batches(selection, variant.program, params, steps)
    last = False
    while not last:
        with tracing.chunk():
            trace, last = next(batches)
        metrics.inc("trace.accesses", len(trace))
        with laying.chunk() as sp:
            sp.attrs["accesses"] += len(trace)
            chunk = AddressStream.from_trace(
                trace, layout, name=label, source=selection.tracer
            )
        del trace  # while the consumer simulates, only the laid-out chunk lives
        yield chunk
    if timings is not None:
        timings["trace-gen"] = timings.get("trace-gen", 0.0) + tracing.duration_s
        timings["addresses"] = timings.get("addresses", 0.0) + laying.duration_s


def variant_stream(
    variant: CompiledVariant,
    params: Mapping[str, int],
    steps: int = 1,
    engine: Union[None, str, EngineSelection] = None,
    name: Optional[str] = None,
    layout: Optional[Layout] = None,
    timings: Optional[dict] = None,
) -> AddressStream:
    """Trace a compiled variant and lay it out as byte addresses: the
    chunks of :func:`variant_chunks`, concatenated."""
    chunks = list(variant_chunks(variant, params, steps, engine, name, layout, timings))
    if len(chunks) == 1:
        return chunks[0]
    return AddressStream.concat(chunks, name=chunks[0].meta.name)


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
    through :meth:`~repro.memsim.MemoryHierarchy.simulate_chunks` — with
    ``cache`` as load-before/store-after around it (a cached stream is
    simulated in the same chunks; a stream to store is traced whole by
    :func:`variant_stream`).

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

    stream = None
    if cache is not None:
        tkey = cache.trace_key(
            str(variant.program), params, steps, layout_fingerprint(layout)
        )
        rkey = cache.result_key(tkey, machine, selection.sim)
        if result_cache:
            stats = cache.load_result(rkey)
            if stats is not None:
                return _result(stats, stats.accesses)
        stream = cache.load_trace(tkey)
        if stream is None:
            stream = variant_stream(
                variant, params, steps, selection, label, layout, timings
            )
            cache.store_trace(tkey, stream)
    if stream is None:
        chunks = (
            (c.addresses, c.writes)
            for c in variant_chunks(
                variant, params, steps, selection, label, layout, timings
            )
        )
    else:
        chunks = ((a, w) for a, w, _ in stream.chunks(_trace.CHUNK_ACCESSES))
    outcome = MemoryHierarchy.standard(machine).simulate_chunks(
        chunks, engine=selection.sim, timings=timings
    )
    stats = stats_from_hierarchy(outcome, machine)
    if cache is not None and result_cache:
        cache.store_result(rkey, stats)
    return _result(stats, outcome.accesses)
