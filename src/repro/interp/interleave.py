"""Interleaved multi-thread trace generation (OpenMP-style execution).

The one multi-thread enumerator: execute a program the way a
``T``-thread OpenMP runtime would — every top-level nest whose
outermost axis is parallel (DOALL or reduction per the static
parallelism analyzer) is partitioned over its outer range by an OpenMP
schedule (:mod:`repro.static.schedule`: ``static``, ``static,k``,
``guided``, ``dynamic``), each thread traces its own chunks, and the
per-thread streams are merged round-robin one access at a time (by
arithmetic: :func:`repro.static.schedule.round_robin_positions` gives
every access its merged position, so the merge is three scatters per
thread, not a loop over accesses).
Serial nests run entirely on thread 0.  An implicit barrier separates
consecutive nests (and steps), exactly like OpenMP's parallel-for join.

:func:`interleaved_nests` yields the merged columns nest by nest; it has
two consumers.  :func:`interleave_trace` collects them into an
:class:`InterleavedRun` — the measured side of the multicore reuse
crossval and the input of the MSI automaton
(:mod:`repro.memsim.coherence`).  ``repro.static.coherence`` drains the
same generator under its access budget, so the coherence analyzer and
the oracle it is benchmarked against share one access stream by
construction rather than by cross-validation.

A run's ``merged`` view is the interleaved access stream every thread
sees, a typed :class:`~repro.stream.AddressStream` in element units (the
canonical global keys — streams support the array protocol, so numpy
consumers see the key column directly; feed it to
:func:`~repro.locality.reuse_distances` to model a *shared* cache).  It
carries the interpreter's write mask, and ``merged_threads`` records
which thread issued every access.  The merge keeps every thread's own
order, so a thread's private stream (its chunks plus, for thread 0, the
serial nests) is ``merged[merged_threads == t]``.

The program is folded once by the production tracer (codegen's
:class:`~repro.codegen.tracer.NestTracer`) and every (nest, chunk) runs
through it — bounds and guard checks included — with the outermost loop
restricted to the chunk; all array declarations are kept, so
``global_keys`` agree across every segment.

Import direction: this module imports ``repro.static.schedule``,
``repro.static.parallelism`` and the tracer lazily, and
``repro.static.coherence`` imports this module lazily, so ``import
repro.static``, ``import repro.interp`` and ``import repro.codegen``
work in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from ..lang import Program
from ..obs import SpanEvent, metrics, span
from ..stream import AddressStream, StreamMeta

if TYPE_CHECKING:
    from ..codegen.tracer import NestTracer


@dataclass(frozen=True)
class InterleavedRun:
    """The access streams of one simulated multi-thread execution."""

    program_name: str
    threads: int
    schedule: str
    parallel_nests: tuple[int, ...]
    merged: AddressStream  # global keys, round-robin interleaved
    #: issuing thread of every merged access (int32, aligned with
    #: ``merged``) — the coherence oracle's third column
    merged_threads: np.ndarray

    @property
    def total(self) -> int:
        return len(self.merged)


def interleaved_nests(
    tracer: NestTracer,
    threads: int,
    steps: int,
    schedule: str,
    parallel: frozenset[int],
    sp: SpanEvent,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the merged ``(keys, writes, thread_ids)`` columns of every
    executed top-level nest of a ``threads``-way run, in execution order.

    A thread's chunks execute back-to-back in chunk order — for
    ``static,k`` and ``guided`` that is the order the deterministic
    dealer hands them out; the live per-thread streams are then merged
    round-robin by arithmetic: each stream's columns are scattered to
    the positions :func:`repro.static.schedule.round_robin_positions`
    computes, so the merge does no Python work per access.

    The enumeration counts its work onto ``sp``, the consumer's span:
    ``accesses`` yielded and ``partitioned_nests`` (nest executions
    split over the threads).
    """
    from ..static.schedule import round_robin_positions, schedule_chunks

    def columns(k: int, chunks=(None,)) -> tuple[np.ndarray, np.ndarray]:
        traces = [tracer.trace(k, chunk) for chunk in chunks]
        return (
            np.concatenate([t.global_keys() for t in traces]),
            np.concatenate([t.writes for t in traces]),
        )

    sp.attrs.update(accesses=0, partitioned_nests=0)
    invocation = 0
    for _ in range(steps):
        for k in range(len(tracer.nests)):
            outer = (
                tracer.outer_bounds(k) if threads > 1 and k in parallel else None
            )
            if outer is None:
                keys, writes = columns(k)
                sp.attrs["accesses"] += len(keys)
                yield keys, writes, np.zeros(len(keys), dtype=np.int32)
                continue
            per_thread = schedule_chunks(*outer, threads, schedule, invocation)
            invocation += 1
            live = [
                (t, *columns(k, chunks))
                for t, chunks in enumerate(per_thread)
                if chunks
            ]
            lengths = [len(ck) for _, ck, _ in live]
            mk = np.empty(sum(lengths), dtype=np.int64)
            mw = np.empty(len(mk), dtype=bool)
            mt = np.empty(len(mk), dtype=np.int32)
            for (t, ck, cw), at in zip(live, round_robin_positions(lengths)):
                mk[at] = ck
                mw[at] = cw
                mt[at] = t
            sp.attrs["accesses"] += len(mk)
            sp.attrs["partitioned_nests"] += 1
            yield mk, mw, mt


def interleave_trace(
    program: Program,
    params: Mapping[str, int],
    threads: int,
    steps: int = 1,
    schedule: str = "static",
) -> InterleavedRun:
    """Simulate a ``threads``-way OpenMP-style execution of ``program``.

    The static parallelism analyzer picks the nests to partition: every
    top-level nest whose outermost axis is DOALL or a reduction.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    from ..codegen.tracer import NestTracer
    from ..memsim.geometry import ELEM_BYTES
    from ..static.parallelism import analyze_parallelism
    from ..static.schedule import parse_schedule

    parse_schedule(schedule)  # validate the spec before tracing
    parallel = frozenset(analyze_parallelism(program, params).parallel_nests())

    with span(
        "interleave-trace",
        program=program.name,
        threads=threads,
        schedule=schedule,
    ) as sp:
        keys, writes, tids = concat_columns(
            interleaved_nests(
                NestTracer(program, params),
                threads, steps, schedule, parallel, sp,
            )
        )
        metrics.inc("trace.interleaved_runs")
        metrics.inc("trace.interleaved_accesses", int(keys.size))
        return InterleavedRun(
            program_name=program.name,
            threads=threads,
            schedule=schedule,
            parallel_nests=tuple(sorted(parallel)),
            merged=AddressStream(keys, writes, meta=StreamMeta(
                name=f"{program.name}/shared", source="interleave",
                unit="elements", elem_bytes=ELEM_BYTES,
            )),
            merged_threads=tids,
        )


def concat_columns(
    nests: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-nest ``(keys, writes, thread_ids)`` triples."""
    columns = list(nests)
    if not columns:
        return np.empty(0, np.int64), np.empty(0, bool), np.empty(0, np.int32)
    return tuple(np.concatenate(c) for c in zip(*columns))
