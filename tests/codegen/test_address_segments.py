"""The codegen tracer's two segment kinds: element traces and addresses.

``NestTracer.segments`` yields element-index traces and
``NestTracer.address_segments`` byte-address streams with each
reference's layout folded in.  Both go through the same plan and the
same replay rule, and both reject an out-of-bounds reference with the
same message.  The Walk oracle's segments (``+interp``) stream too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import trace_program
from repro.codegen.tracer import NestTracer
from repro.core.regroup.layout import ArrayPlacement, Layout, default_layout
from repro.engines import resolve_engines
from repro.harness import RunRequest, run
from repro.interp import trace_program as interp_trace
from repro.interp.trace import TraceWalk
from repro import stream as stream_module
from repro.lang import AnalysisError, parse, validate
from repro.obs import metrics
from repro.stream import AddressStream

N = 16


def _program(text: str):
    return validate(parse(f"program p\nparam N\nreal A[N, N], B[N, N]\n{text}"))


def _emits(segments) -> tuple[int, int]:
    """(emitted segments, accesses) of one walk over ``segments``."""
    before = metrics.snapshot()["counters"].get("codegen.trace.nests", 0)
    accesses = sum(len(s) for s in segments)
    return metrics.snapshot()["counters"]["codegen.trace.nests"] - before, accesses


def test_a_step_larger_than_a_chunk_is_emitted_again(monkeypatch):
    """A step replays only if it fits in one chunk: the plan sizes it by
    ``len(segment)``, which both kinds make the access count."""
    program = _program("for i = 1, N { for j = 1, N { A[j, i] = f(B[j, i]) } }")
    params = {"N": N}
    layout = default_layout(program, params)
    per_step = 2 * N * N
    kinds = {
        "elements": lambda t: t.segments(2),
        "addresses": lambda t: t.address_segments(2, layout),
    }
    for kind, segments in kinds.items():
        # one step fits: emitted once, replayed
        assert _emits(segments(NestTracer(program, params))) == (1, 2 * per_step), kind
        # one step is four chunks: the second step is emitted again, not kept
        monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", per_step // 4)
        assert _emits(segments(NestTracer(program, params))) == (8, 2 * per_step), kind
        monkeypatch.undo()


def test_out_of_bounds_is_the_same_error_in_both_modes():
    """Element index, ``array #k`` and size, whether the tracer emits
    element indices or addresses — under a folded placement or a stride
    break — and whichever tracer ``run()`` uses."""
    program = _program("for i = 1, N { B[i + 1, N] = A[i, 1] }")
    params = {"N": N}
    message = f"out-of-bounds access: element {N * N} of array #1 (size {N * N})"
    with pytest.raises(AnalysisError) as element_mode:
        trace_program(program, params)
    assert str(element_mode.value) == message
    columns = Layout(
        {
            "A": ArrayPlacement("A", (N, N), 0, (1, N)),
            "B": ArrayPlacement("B", (N, N), N * N, (1, 2 * N)),
        },
        3 * N * N,
    )
    for layout in (default_layout(program, params), columns):
        segments = NestTracer(program, params).address_segments(1, layout)
        with pytest.raises(AnalysisError) as address_mode:
            list(segments)
        assert str(address_mode.value) == message
    with pytest.raises(AnalysisError) as codegen_run:
        run(RunRequest(program, levels="noopt", params=params, engine="fast+codegen"))
    assert str(codegen_run.value) == message
    # the interpreter oracle words it its own way, with the same three facts
    with pytest.raises(
        AnalysisError, match=rf"array #1 element {N * N} \(size {N * N}\)"
    ):
        run(RunRequest(program, levels="noopt", params=params, engine="reference+interp"))


def test_the_oracle_segments_join_to_the_whole_trace(monkeypatch):
    """Under ``+interp`` the Walk oracle lays its accesses out a chunk's
    worth at a time, over a top-level statement that is no loop, a
    triangular nest and several steps: the segments, none over
    ``CHUNK_ACCESSES``, join to the whole trace laid out.  A step larger
    than a chunk is walked again; one that fits is walked once and
    replayed."""
    program = _program(
        "B[1, 1] = 0.0\nfor i = 1, N { for j = i, N { A[j, i] = f(B[j, i]) } }"
    )
    params = {"N": N}
    layout = default_layout(program, params)
    instances = 1 + N * (N + 1) // 2
    walked = []
    assign = TraceWalk.assign
    monkeypatch.setattr(
        TraceWalk, "assign", lambda walk, stmt: walked.append(assign(walk, stmt))
    )
    for chunk, steps, walks in ((37, 2, 2), (2 * instances, 3, 1)):
        whole = AddressStream.from_trace(interp_trace(program, params, steps), layout)
        monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", chunk)
        walked.clear()
        segments = list(
            resolve_engines("interp").address_segments(
                program, params, steps, layout, "p"
            )
        )
        assert len(walked) == walks * instances, chunk
        assert max(len(s) for s in segments) == min(chunk, 2 * instances - 1)
        joined = AddressStream.concat(segments)
        for column in ("addresses", "writes", "ref_ids"):
            assert np.array_equal(
                getattr(joined, column), getattr(whole, column)
            ), (chunk, column)
