"""The multi-thread enumerator against a merge spelled out run by run.

:func:`repro.interp.interleave_trace` merges the per-thread streams by
arithmetic (``round_robin_positions``).  Here the same columns are
rebuilt the slow way — one slice assignment per run of the reference
drain (``conftest.round_robin_order``) — and every view must be equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import round_robin_order

from repro.interp import interleave_trace
from repro.interp.tracegen import NestTracer
from repro.programs import registry
from repro.static.parallelism import analyze_parallelism
from repro.static.schedule import schedule_chunks

#: the six registry programs at sizes the per-run reference stays cheap at
PROGRAMS = {
    "adi": {"N": 12},
    "swim": {"N": 12},
    "tomcatv": {"N": 12},
    "sweep3d": {"N": 6},
    "sp": {"N": 6},
    "fft": {},
}


def bundled(name):
    if name == "fft":
        return registry.build_fft(64), 1
    entry = registry.get(name)
    return entry.build(), entry.steps


def reference_columns(program, params, threads, steps, schedule):
    """``(keys, writes, thread_ids)`` with the merge done run by run."""
    tracer = NestTracer(program, params)
    parallel = analyze_parallelism(program, params).parallel_nests()
    keys, writes, tids = [], [], []
    invocation = 0
    for _ in range(steps):
        for k in range(len(tracer.nests)):
            outer = tracer.outer_bounds(k) if k in parallel else None
            if outer is None:
                per_thread = [[None]]
            else:
                per_thread = schedule_chunks(
                    *outer, threads, schedule, invocation
                )
                invocation += 1
            streams = []
            for t, chunks in enumerate(per_thread):
                traces = [tracer.trace(k, chunk) for chunk in chunks]
                if traces:
                    streams.append((
                        t,
                        np.concatenate([c.global_keys() for c in traces]),
                        np.concatenate([c.writes for c in traces]),
                    ))
            for i, p, q in round_robin_order([len(s[1]) for s in streams]):
                t, ck, cw = streams[i]
                keys.append(ck[p:q])
                writes.append(cw[p:q])
                tids.append(np.full(q - p, t, dtype=np.int32))
    return np.concatenate(keys), np.concatenate(writes), np.concatenate(tids)


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("schedule", ["static", "static,2", "guided", "dynamic"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_merge_equals_reference_drain(name, schedule, threads):
    program, steps = bundled(name)
    params = PROGRAMS[name]
    run = interleave_trace(program, params, threads, steps=steps, schedule=schedule)
    keys, writes, tids = reference_columns(program, params, threads, steps, schedule)
    assert np.array_equal(run.merged.addresses, keys)
    assert np.array_equal(run.merged.writes, writes)
    assert np.array_equal(run.merged_threads, tids)
    assert run.merged_threads.dtype == np.int32


def test_spans_count_the_enumeration():
    from repro.obs import SpanCollector

    program, steps = bundled("adi")
    with SpanCollector() as collector:
        run = interleave_trace(program, {"N": 12}, 4, steps=steps)
    (sp,) = [e for e in collector.events if e.name == "interleave-trace"]
    assert sp.attrs["accesses"] == run.total
    # every step partitions each parallel nest once
    assert sp.attrs["partitioned_nests"] == steps * len(run.parallel_nests)
