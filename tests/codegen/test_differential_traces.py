"""Differential trace suite: codegen tracer vs. the Walk oracle.

Every program x level variant of the study (42 in all) must produce a
trace **bit-for-bit identical** to the oracle's
(``repro.interp.trace_program``, a ``lang.Walk``) — array ids, element
offsets, read/write flags and reference ids — at the configuration
``measure_variant`` runs (the codegen tracer has no other).  On top of
the pairwise comparison, the oracle's trace of each variant, instruction
ids included, is pinned by the fence table's ``trace`` kind
(``tests/fences.py``), so a change to the shared fold that moves both
tracers together still fails loudly.  Every kind of that table is
checked here against its variant table.

The measuring chain streams: the codegen tracer cuts a trace into
outer-loop segments of about ``CHUNK_ACCESSES`` accesses.  At a tiny odd
chunk size the segments of every variant still concatenate to the trace
bit for bit, and the chunked measurement — the stepped chain, which
counts what repeats step 1 — gives the one-chunk ``MemStats`` field for
field.

``run()`` never lays a codegen trace out: the tracer emits byte
addresses with each array's layout folded into its references.  Its
chunks, at the default and the tiny chunk size, must fingerprint like
the oracle's trace laid out by ``Layout.addresses`` (addresses,
writes and reference ids).

The static model numbers references by the same lowering as the
tracer; every variant's model agrees with the tracer's reference table
without tracing anything.

The tier-1 cases run at the small golden sizes; the ``slow`` marker
re-runs the full matrix at the fig-10 registry sizes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.codegen import trace_program as codegen_trace
from repro.codegen.tracer import NestTracer as CodegenNestTracer
from repro.harness import simulate_steps, variant_steps
from repro import stream as stream_module
from repro.interp import trace_program as interp_trace
from repro.interp.trace import concat_traces
from repro.memsim import MemoryHierarchy, octane, stats_from_hierarchy
from repro.stream import AddressStream

import fences

CASES = list(fences.KINDS["trace"].rows)
IDS = [f"{fences.name(p)}-{lv}" for p, lv in CASES]
GOLDEN_PARAMS = fences.GOLDEN_PARAMS
STEPS = fences.TRACE_STEPS


#: a chunk size that cuts every variant's trace, nests included, off
#: every natural boundary
TINY_CHUNK = 997


def assert_traces_identical(a, b, label=""):
    """Field-by-field bit equality of two AccessTrace objects."""
    assert a.array_names == b.array_names, label
    assert a.array_sizes == b.array_sizes, label
    assert len(a) == len(b), f"{label}: {len(a)} vs {len(b)} accesses"
    for field in ("array_ids", "elems", "writes", "ref_ids"):
        fa, fb = getattr(a, field), getattr(b, field)
        assert np.array_equal(fa, fb), f"{label}: {field} differs"
    ia, ib = a.instr_ids, b.instr_ids
    assert (ia is None) == (ib is None), f"{label}: instr_ids presence"
    if ia is not None:
        assert np.array_equal(ia, ib), f"{label}: instr_ids differ"


@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_trace_matches_interpreter(name, level):
    program, params = fences.compiled(name, level).program, GOLDEN_PARAMS[name]
    ref = interp_trace(program, params, steps=STEPS)
    out = codegen_trace(program, params, steps=STEPS)
    assert_traces_identical(ref, out, f"{name}/{level}")


@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_trace_matches_golden_fingerprint(name, level):
    assert fences.value("trace", name, level) == fences.expected("trace", name, level), (
        f"{name}/{level}: trace moved; if intentional, rewrite the fences"
    )


@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_segments_concatenate_to_the_trace(name, level, monkeypatch):
    program, params = fences.compiled(name, level).program, GOLDEN_PARAMS[name]
    whole = interp_trace(program, params, steps=STEPS)
    monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", TINY_CHUNK)
    segments = list(CodegenNestTracer(program, params).segments()) * STEPS
    assert_traces_identical(whole, concat_traces(segments), f"{name}/{level}")


@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_chunked_measurement_matches_one_chunk(name, level, monkeypatch):
    """The chain of ``measure_variant`` past its compile, on a
    hierarchy small enough (4 L1 lines, 32 L2 lines, 4 TLB entries)
    that every level evicts across chunk boundaries.  The chunked
    side is the stepped chain (``simulate_steps``): a step longer
    than a chunk is probed from its first chunk and what repeats
    step 1 is counted.  The one chunk is simulated access by
    access."""
    variant, params = fences.compiled(name, level), GOLDEN_PARAMS[name]
    machine = octane().scaled(1 / 256)
    monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", 2**40)
    ((one, _),) = variant_steps(variant, params, STEPS)
    whole = stats_from_hierarchy(
        MemoryHierarchy.standard(machine).simulate_chunks(
            [(one.addresses, one.writes)]
        ),
        machine,
    )
    monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", TINY_CHUNK)
    source = variant_steps(variant, params, STEPS)
    chunked = stats_from_hierarchy(simulate_steps(machine, source), machine)
    many = source.span.event.attrs["chunks"]
    assert many > 1 or whole.accesses <= TINY_CHUNK
    assert chunked == whole


def _oracle_fingerprint(variant, params, steps):
    """The oracle's trace laid out by ``Layout.addresses``."""
    trace = interp_trace(variant.program, params, steps=steps)
    return AddressStream.from_trace(trace, variant.layout(params)).fingerprint()


def _chunks_fingerprint(variant, params, steps):
    """``run()``'s producer under the codegen tracer: addresses
    emitted with each reference's layout folded in."""
    chunks = [c for c, _ in variant_steps(variant, params, steps, "fast+codegen")]
    assert all(c.meta.unit == "bytes" for c in chunks)
    return AddressStream.concat(chunks).fingerprint()


@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_address_chunks_match_the_oracle(name, level, monkeypatch):
    variant, params = fences.compiled(name, level), GOLDEN_PARAMS[name]
    oracle = _oracle_fingerprint(variant, params, STEPS)
    assert _chunks_fingerprint(variant, params, STEPS) == oracle
    monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", TINY_CHUNK)
    assert _chunks_fingerprint(variant, params, STEPS) == oracle


def test_goldens_cover_all_variants():
    """Every kind's committed rows are its table's rows, sub-keys
    included: nothing stale, nothing missing."""
    assert len(CASES) == 42
    for kind, spec in fences.KINDS.items():
        want = {f"{p}/{lv}": subs for (p, lv), subs in spec.rows.items()}
        got = fences.committed(kind)
        assert sorted(got) == sorted(want), kind
        for row, subs in want.items():
            if subs != (None,):
                assert sorted(got[row]) == sorted(subs), (kind, row)


def test_check_reports_exactly_the_moved_cell(monkeypatch, capsys):
    """``fences.py --check`` over every kind, each rule stubbed to its
    committed values but for one size of one variant's multicore row:
    exit 1, and the table holds that variant x kind cell alone."""
    for kind, spec in fences.KINDS.items():
        def rule(program, level, sub, kind=kind, rows=fences.committed(kind)):
            if (kind, program, level, sub) == ("multicore", "adi", "new", "N=16"):
                return {}
            cell = rows[f"{program}/{level}"]
            return cell if sub is None else cell[sub]

        monkeypatch.setitem(fences.KINDS, kind, dataclasses.replace(spec, rule=rule))
    assert fences.main(["--check"]) == 1
    header, *rows, _ = capsys.readouterr().out.splitlines()
    assert header.split() == ["variant", *fences.KINDS]
    assert [row.split() for row in rows] == [
        ["adi/new", *("N=16" if k == "multicore" else "." for k in fences.KINDS)]
    ]


def test_static_model_numbers_every_variant_like_the_tracer():
    """The one lowering, pinned without tracing: the static model's
    references and the tracer's reference table agree id for id."""
    from repro.static import build_model

    def rows(refs):
        return [(r.ref_id, r.stmt_id, r.array, r.is_write, r.text) for r in refs]

    for name, level in CASES:
        program = fences.compiled(name, level).program
        tracer = CodegenNestTracer(program, GOLDEN_PARAMS[name])
        assert rows(build_model(program).refs) == rows(tracer.refs), (
            f"{name}/{level}"
        )


def _full_size(name):
    """Registry params and steps (fft16, built rather than registered,
    at its golden size)."""
    if name == "fft16":
        return GOLDEN_PARAMS[name], 1
    return {"N": fences.FIG10[name]}, fences.steps(name)


@pytest.mark.slow
@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_trace_matches_interpreter_full_size(name, level):
    """The full matrix at the fig-10 registry sizes (tier 2)."""
    params, steps = _full_size(name)
    program = fences.compiled(name, level).program
    ref = interp_trace(program, params, steps=steps)
    out = codegen_trace(program, params, steps=steps)
    assert_traces_identical(ref, out, f"{name}/{level} full")


@pytest.mark.slow
@pytest.mark.parametrize("name,level", CASES, ids=IDS)
def test_address_chunks_match_the_oracle_full_size(name, level):
    """The address-emitting producer at the fig-10 registry sizes."""
    variant, (params, steps) = fences.compiled(name, level), _full_size(name)
    oracle = _oracle_fingerprint(variant, params, steps)
    assert _chunks_fingerprint(variant, params, steps) == oracle
