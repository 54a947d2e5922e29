"""Differential trace suite: codegen tracer vs. the Walk oracle.

Every program x level variant of the study (42 in all) must produce a
trace **bit-for-bit identical** to the oracle's
(``repro.interp.trace_program``, a ``lang.Walk``) — array ids, element
offsets, read/write flags and reference ids — at the configuration
``measure_variant`` runs (the codegen tracer has no other).  On top of
the pairwise comparison, the oracle's trace of each variant, instruction
ids included, is pinned by a committed fingerprint
(``golden_trace_fingerprints.json``), so a change to the shared fold
that moves both tracers together still fails loudly.

Run ``python tests/codegen/test_differential_traces.py`` to regenerate
the fingerprint file after an *intentional* trace change (and say so in
the commit).

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

import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN_FILE = Path(__file__).parent / "golden_trace_fingerprints.json"

# the golden variant helpers live with the pipeline goldens; pytest only
# auto-inserts this file's own directory (a conftest.py here would
# shadow tests/conftest.py for sibling suites, so the path is set inline)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))

if __name__ != "__main__":
    from golden_pipelines import (
        GOLDEN_LEVELS,
        GOLDEN_PARAMS,
        build_golden_program,
        reset_fusion_uids,
    )

    from fingerprint import trace_fingerprint
    from repro.codegen import trace_program as codegen_trace
    from repro.codegen.tracer import NestTracer as CodegenNestTracer
    from repro.core import compile_variant
    from repro.harness import simulate_steps, variant_steps
    from repro import stream as stream_module
    from repro.interp import trace_program as interp_trace
    from repro.interp.trace import concat_traces
    from repro.memsim import MemoryHierarchy, octane, stats_from_hierarchy
    from repro.stream import AddressStream

    CASES = [
        (name, level)
        for name in sorted(GOLDEN_PARAMS)
        for level in GOLDEN_LEVELS
    ]

STEPS = 2  # >1 so the per-step replay (and the oracle's instruction ids) is covered


#: a chunk size that cuts every variant's trace, nests included, off
#: every natural boundary
TINY_CHUNK = 997

_VARIANT_CACHE: dict = {}


def _variant(name, level):
    # compiled once per (name, level): every test here traces the same
    # immutable program
    key = (name, level)
    if key not in _VARIANT_CACHE:
        program = build_golden_program(name)
        reset_fusion_uids()
        _VARIANT_CACHE[key] = compile_variant(program, level)
    return _VARIANT_CACHE[key]


def _variant_program(name, level):
    return _variant(name, level).program


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


if __name__ != "__main__":

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_trace_matches_interpreter(name, level):
        program = _variant_program(name, level)
        params = GOLDEN_PARAMS[name]
        ref = interp_trace(program, params, steps=STEPS)
        out = codegen_trace(program, params, steps=STEPS)
        assert_traces_identical(ref, out, f"{name}/{level}")

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_trace_matches_golden_fingerprint(name, level):
        assert GOLDEN_FILE.exists(), (
            f"missing {GOLDEN_FILE}; regenerate with "
            "'python tests/codegen/test_differential_traces.py'"
        )
        golden = json.loads(GOLDEN_FILE.read_text())
        program = _variant_program(name, level)
        trace = interp_trace(
            program, GOLDEN_PARAMS[name], steps=STEPS, with_instr=True
        )
        key = f"{name}-{level}"
        assert key in golden, f"no golden fingerprint for {key}; regenerate"
        assert trace_fingerprint(trace) == golden[key], (
            f"{key}: trace moved; if intentional, regenerate the goldens"
        )

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_segments_concatenate_to_the_trace(name, level, monkeypatch):
        program = _variant_program(name, level)
        params = GOLDEN_PARAMS[name]
        whole = interp_trace(program, params, steps=STEPS)
        monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", TINY_CHUNK)
        segments = list(CodegenNestTracer(program, params).segments()) * STEPS
        assert_traces_identical(whole, concat_traces(segments), f"{name}/{level}")

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_chunked_measurement_matches_one_chunk(name, level, monkeypatch):
        """The chain of ``measure_variant`` past its compile, on a
        hierarchy small enough (4 L1 lines, 32 L2 lines, 4 TLB entries)
        that every level evicts across chunk boundaries.  The chunked
        side is the stepped chain (``simulate_steps``): a step longer
        than a chunk is probed from its first chunk and what repeats
        step 1 is counted.  The one chunk is simulated access by
        access."""
        variant, params = _variant(name, level), GOLDEN_PARAMS[name]
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

    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_address_chunks_match_the_oracle(name, level, monkeypatch):
        variant, params = _variant(name, level), GOLDEN_PARAMS[name]
        oracle = _oracle_fingerprint(variant, params, STEPS)
        assert _chunks_fingerprint(variant, params, STEPS) == oracle
        monkeypatch.setattr(stream_module, "CHUNK_ACCESSES", TINY_CHUNK)
        assert _chunks_fingerprint(variant, params, STEPS) == oracle

    def test_goldens_cover_all_variants():
        golden = json.loads(GOLDEN_FILE.read_text())
        assert sorted(golden) == sorted(f"{n}-{lv}" for n, lv in CASES)
        assert len(golden) == 42

    def test_static_model_numbers_every_variant_like_the_tracer():
        """The one lowering, pinned without tracing: the static model's
        references and the tracer's reference table agree id for id."""
        from repro.static import build_model

        def rows(refs):
            return [(r.ref_id, r.stmt_id, r.array, r.is_write, r.text) for r in refs]

        for name, level in CASES:
            program = _variant_program(name, level)
            tracer = CodegenNestTracer(program, GOLDEN_PARAMS[name])
            assert rows(build_model(program).refs) == rows(tracer.refs), (
                f"{name}/{level}"
            )

    def _full_size(name):
        """Registry params and steps (fft, built rather than registered,
        at its golden size)."""
        from repro.programs import registry

        try:
            entry = registry.get(name)
        except KeyError:
            return GOLDEN_PARAMS[name], 1
        return dict(entry.default_params), entry.steps

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_trace_matches_interpreter_full_size(name, level):
        """The full matrix at the fig-10 registry sizes (tier 2)."""
        params, steps = _full_size(name)
        program = _variant_program(name, level)
        ref = interp_trace(program, params, steps=steps)
        out = codegen_trace(program, params, steps=steps)
        assert_traces_identical(ref, out, f"{name}/{level} full")

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,level", CASES, ids=[f"{n}-{lv}" for n, lv in CASES]
    )
    def test_address_chunks_match_the_oracle_full_size(name, level):
        """The address-emitting producer at the fig-10 registry sizes."""
        variant, (params, steps) = _variant(name, level), _full_size(name)
        oracle = _oracle_fingerprint(variant, params, steps)
        assert _chunks_fingerprint(variant, params, steps) == oracle


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))
    from golden_pipelines import (
        GOLDEN_LEVELS,
        GOLDEN_PARAMS,
        build_golden_program,
        reset_fusion_uids,
    )

    from fingerprint import trace_fingerprint
    from repro.core import compile_variant
    from repro.interp import trace_program as interp_trace

    golden = {}
    for name in sorted(GOLDEN_PARAMS):
        for level in GOLDEN_LEVELS:
            program = build_golden_program(name)
            reset_fusion_uids()
            variant = compile_variant(program, level)
            trace = interp_trace(
                variant.program, GOLDEN_PARAMS[name], steps=STEPS,
                with_instr=True,
            )
            golden[f"{name}-{level}"] = trace_fingerprint(trace)
            print(f"{name}-{level}: {golden[f'{name}-{level}']}")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE} ({len(golden)} fingerprints)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
