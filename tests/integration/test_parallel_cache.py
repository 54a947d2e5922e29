"""Integration coverage for the parallel harness and the on-disk cache.

Pins the determinism contract of pooled ``run()`` requests (``jobs > 1``
== serial, bit for bit, in input order) and the correctness
contract of :class:`repro.harness.TraceCache` (warm results identical,
keys invalidate when the program or the data layout changes).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import compile_variant
from repro.harness import (
    RunRequest,
    TraceCache,
    layout_fingerprint,
    machine_for,
    run,
)
from repro.interp import trace_program
from repro.lang import validate
from repro.programs import registry
from repro.stream import AddressStream
from repro.stream.io import read_stream_binary

SMALL = {"N": 40}


def _run(jobs, cache_dir=None):
    return run(
        RunRequest(
            program="adi",
            levels=("noopt", "fusion", "new"),
            params=SMALL,
            steps=1,
            jobs=jobs,
            cache=str(cache_dir) if cache_dir else None,
        )
    ).results


class TestParallelRunner:
    def test_parallel_matches_serial_bit_identical(self, tmp_path):
        serial = _run(jobs=1)
        parallel = _run(jobs=3)
        assert [r.level for r in parallel] == ["noopt", "fusion", "new"]
        for s, p in zip(serial, parallel):
            assert s.stats == p.stats  # MemStats is a frozen dataclass: == is exact
            assert s.trace_length == p.trace_length
            assert s.program == p.program and s.params == p.params
            # the compiled variant stays on the worker's side of the pool
            assert s.variant is not None and p.variant is None

    def test_parallel_workers_share_disk_cache(self, tmp_path):
        cold = _run(jobs=3, cache_dir=tmp_path)
        info = TraceCache(tmp_path).info()
        assert info["traces"] == 3 and info["results"] == 3
        warm = _run(jobs=3, cache_dir=tmp_path)
        assert [r.stats for r in warm] == [r.stats for r in cold]

    def test_run_order_and_engines(self, tmp_path):
        fast = run(
            RunRequest(program="adi", levels=("noopt", "new"), params=SMALL, steps=1)
        ).results
        ref = run(
            RunRequest(
                program="adi", levels=("noopt", "new"), params=SMALL, steps=1,
                engine="reference",
            )
        ).results
        assert [r.level for r in fast] == ["noopt", "new"]
        assert [r.stats for r in fast] == [r.stats for r in ref]


class TestTraceCache:
    def _measure(self, cache, level="noopt", engine=None):
        entry = registry.get("adi")
        program = validate(entry.build())
        return run(
            RunRequest(
                program=program,
                levels=(level,),
                params=SMALL,
                machine=machine_for(entry.machine_spec),
                steps=1,
                cache=cache,
                engine=engine,
            )
        ).results[0]

    def test_cache_hit_returns_identical_results(self, tmp_path):
        cache = TraceCache(tmp_path)
        cold = self._measure(cache)
        assert "trace-gen" in cold.timings  # actually traced
        warm = self._measure(cache)
        assert warm.stats == cold.stats
        assert warm.trace_length == cold.trace_length
        assert "trace-gen" not in warm.timings  # served from disk

    def test_trace_reused_across_machines_result_not(self, tmp_path):
        cache = TraceCache(tmp_path)
        self._measure(cache)
        assert cache.info() == {**cache.info(), "traces": 1, "results": 1}
        # same trace, different engine: new result entry, same trace entry
        self._measure(cache, engine="reference")
        info = cache.info()
        assert info["traces"] == 1 and info["results"] == 2

    def test_layout_hash_invalidates_key(self, tmp_path):
        entry = registry.get("adi")
        program = validate(entry.build())
        variant = compile_variant(program, "noopt")
        layout = variant.layout(SMALL)
        cache = TraceCache(tmp_path)
        base_key = cache.trace_key(
            str(variant.program), SMALL, 1, layout_fingerprint(layout)
        )
        # moving one array (regrouping would do this) must change the key
        name, placement = next(iter(sorted(layout.placements.items())))
        moved = dict(layout.placements)
        moved[name] = dataclasses.replace(placement, offset=placement.offset + 1)
        moved_layout = dataclasses.replace(layout, placements=moved)
        assert layout_fingerprint(moved_layout) != layout_fingerprint(layout)
        moved_key = cache.trace_key(
            str(variant.program), SMALL, 1, layout_fingerprint(moved_layout)
        )
        assert moved_key != base_key
        assert cache.load_trace(moved_key) is None

    def test_program_change_invalidates_key(self, tmp_path):
        entry = registry.get("adi")
        program = validate(entry.build())
        cache = TraceCache(tmp_path)
        texts = [
            str(compile_variant(program, level).program)
            for level in ("noopt", "fusion")
        ]
        keys = {cache.trace_key(t, SMALL, 1, "same-layout") for t in texts}
        assert len(keys) == 2

    @pytest.mark.xfail(
        strict=True,
        reason="measure_variant keys traces on str(Program), a one-line "
        "summary; hashing to_source() fixes it but perf/workloads.py "
        "(frozen by BENCHMARK.json) recomputes the key from the summary",
    )
    def test_same_summary_variants_do_not_share_an_entry(self, tmp_path):
        # fft64/regroup and fft64/new: same loop/nest/array counts, same
        # layout, different access order — whichever runs second must not
        # replay the other's stream
        program = validate(registry.build_fft(64))
        cache = TraceCache(tmp_path)
        uncached = set()
        for level in ("regroup", "new"):
            run(
                RunRequest(
                    program=program,
                    levels=(level,),
                    params={},
                    machine=machine_for(registry.MachineSpec()),
                    cache=cache,
                )
            )
            variant = compile_variant(program, level)
            uncached.add(
                AddressStream.from_trace(
                    trace_program(variant.program, {}), variant.layout({})
                ).fingerprint()
            )
        stored = {
            read_stream_binary(path).fingerprint()
            for path in tmp_path.glob("trace-*.ast")
        }
        assert len(uncached) == 2 and stored == uncached

    def test_clear_and_corrupt_entry(self, tmp_path):
        cache = TraceCache(tmp_path)
        cold = self._measure(cache)
        # corrupt the trace entry: must be treated as a miss, then rewritten
        for path in tmp_path.iterdir():
            if path.name.startswith("trace-"):
                path.write_bytes(b"not an npz")
        for path in tmp_path.iterdir():
            if path.name.startswith("result-"):
                path.unlink()
        again = self._measure(cache)
        assert again.stats == cold.stats
        removed = cache.clear()
        assert removed == cache.info()["traces"] + 2  # all entries gone
        assert cache.info() == {"traces": 0, "results": 0, "tune": 0, "bytes": 0}

    def test_roundtrip_stream(self, tmp_path):
        cache = TraceCache(tmp_path)
        addresses = np.arange(100, dtype=np.int64) * 8
        writes = (np.arange(100) % 3 == 0)
        stream = AddressStream(addresses, writes)
        cache.store_trace("k" * 32, stream)
        loaded = cache.load_trace("k" * 32)
        assert np.array_equal(loaded.addresses, addresses)
        assert np.array_equal(loaded.writes, writes)
        assert loaded.fingerprint() == stream.fingerprint()
