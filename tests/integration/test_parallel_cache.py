"""Integration coverage for the parallel harness and the on-disk cache.

Pins the determinism contract of pooled ``run()`` requests (``jobs > 1``
== serial, bit for bit, in input order) and the correctness
contract of :class:`repro.harness.TraceCache` (warm results identical,
keys invalidate when the program or the data layout changes).
"""

import dataclasses
import os
from pathlib import Path

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
from repro.memsim import MemStats
from repro.programs import registry
from repro.stream import AddressStream
from repro.stream.io import read_stream_binary

import fences

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
        variant = fences.compiled("adi", "noopt")
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
        cache = TraceCache(tmp_path)
        texts = [str(fences.compiled("adi", level).program) for level in ("noopt", "fusion")]
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

    def test_stream_is_stored_as_simulated_and_replayed_as_read(self, tmp_path):
        cache = TraceCache(tmp_path)
        cold = self._measure(cache, level="new", engine="fast")
        spans = {s.name: s.attrs for s in cold.spans}
        # one chunk stored per chunk simulated, while it is simulated
        assert spans["trace-store"]["chunks"] == spans["l1"]["chunks"]
        (path,) = tmp_path.glob("trace-*.ast")
        stored = read_stream_binary(path)
        variant = cold.variant
        traced = AddressStream.from_trace(
            trace_program(variant.program, SMALL), variant.layout(SMALL)
        )
        assert stored.fingerprint() == traced.fingerprint()
        # each nest a period at a time: under a byte per access, not ~18
        assert path.stat().st_size < len(stored)
        for result in tmp_path.glob("result-*"):
            result.unlink()
        warm = self._measure(cache, level="new", engine="fast")
        spans = {s.name: s.attrs for s in warm.spans}
        assert "trace-gen" not in spans and "trace-store" not in spans
        assert spans["trace-load"]["chunks"] == spans["l1"]["chunks"]
        assert warm.stats == cold.stats

    def test_entry_damaged_past_its_header_is_traced_again(self, tmp_path):
        cache = TraceCache(tmp_path)
        cold = self._measure(cache)
        (path,) = tmp_path.glob("trace-*.ast")
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])  # a chunk cut short
        for result in tmp_path.glob("result-*"):
            result.unlink()
        again = self._measure(cache)
        assert again.stats == cold.stats
        assert "trace-gen" in again.timings  # the replay failed midway
        assert path.read_bytes() == intact  # and the entry was written again

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


def _stats(accesses):
    return MemStats("m", accesses, 1, 1, 1, 32, 128, 0.5)


@pytest.mark.parametrize(
    "store, load, first, second",
    [
        (TraceCache.store_result, TraceCache.load_result, _stats(10), _stats(20)),
        (
            lambda cache, key, entry: cache.store_entry("tune", key, entry),
            lambda cache, key: cache.load_entry("tune", key),
            {"score": 1},
            {"score": 2},
        ),
    ],
    ids=["result", "tune"],
)
def test_store_leaves_another_writers_temporary_alone(
    tmp_path, monkeypatch, store, load, first, second
):
    """Writer 1 stores a key and is stopped halfway through writing its
    temporary, while writer 2 (another process) stores the same key: 2
    must neither truncate nor publish 1's half-written file, and each
    publishes its own whole entry."""
    cache = TraceCache(tmp_path)
    real_write = Path.write_text
    halves = []

    def write_text(path, text):
        if halves:  # writer 2, or writer 1 finishing
            return real_write(path, text)
        halves.append(text[: len(text) // 2])
        real_write(path, halves[0])
        monkeypatch.setattr(os, "getpid", lambda: 2)
        store(cache, "k", second)
        assert path.read_text() == halves[0], "writer 2 touched writer 1's file"
        assert load(cache, "k") == second
        return real_write(path, text)

    monkeypatch.setattr(os, "getpid", lambda: 1)
    monkeypatch.setattr(Path, "write_text", write_text)
    store(cache, "k", first)
    assert load(cache, "k") == first
    assert not list(tmp_path.glob("*.tmp"))


def test_info_counts_published_entries_only(tmp_path):
    cache = TraceCache(tmp_path)
    cache.store_result("k", _stats(10))
    (tmp_path / "result-j.json.77.tmp").write_text("{")
    (tmp_path / "trace-t.ast.77.tmp").write_bytes(b"half")
    info = cache.info()
    assert (info["results"], info["traces"]) == (1, 0)
    assert info["bytes"] == (tmp_path / "result-k.json").stat().st_size
    assert cache.clear() == 3  # a crashed writer's leftovers are swept
