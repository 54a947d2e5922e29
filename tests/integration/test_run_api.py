"""The run(RunRequest) front door.

Pins the api-redesign contract: the old trio (``measure``,
``measure_application``, ``run_application``) is *gone* in v2.0 — not
deprecated, removed; ``verify=`` actually reaches the compiler; and
the observability sinks (events.jsonl, progress lines) fire.
"""

import dataclasses

import pytest

import repro.harness
from repro.harness import (
    RunRequest,
    RunResult,
    machine_for,
    run,
)
from repro.lang import ReproError, validate
from repro.obs import RunLog, TraceConfig, summarize_run
from repro.programs import registry
from repro.verify import PassVerifier

SMALL = {"N": 24}


def _adi():
    entry = registry.get("adi")
    return validate(entry.build()), machine_for(entry.machine_spec)


class TestFrontDoor:
    def test_levels_accept_string_sequence_and_comma(self):
        a = run(RunRequest(program="adi", levels="noopt,new", params=SMALL, steps=1))
        b = run(
            RunRequest(program="adi", levels=("noopt", "new"), params=SMALL, steps=1)
        )
        assert [r.level for r in a] == ["noopt", "new"]
        assert a.rows() == b.rows()

    def test_registry_defaults_fill_params_and_steps(self):
        result = run(RunRequest(program="adi", levels=("noopt",), params=SMALL))
        entry = registry.get("adi")
        assert result[0].params == dict(SMALL)
        # default steps come from the registry entry (adi: 2)
        lone = run(RunRequest(program="adi", levels=("noopt",), params=SMALL, steps=1))
        assert result[0].trace_length == lone[0].trace_length * entry.steps

    def test_program_object_requires_params(self):
        program, _ = _adi()
        with pytest.raises(ReproError, match="requires params"):
            run(RunRequest(program=program, levels=("noopt",)))

    def test_empty_levels_rejected(self):
        with pytest.raises(ReproError, match="levels is empty"):
            run(RunRequest(program="adi", levels=""))

    def test_result_container_protocols(self):
        result = run(RunRequest(program="adi", levels=("noopt", "new"), params=SMALL, steps=1))
        assert isinstance(result, RunResult)
        assert len(result) == 2
        assert result[1].level == "new"
        assert [r.level for r in result] == ["noopt", "new"]
        assert [(r.program, r.level) for r in result.results] == [
            ("adi", "noopt"),
            ("adi", "new"),
        ]
        assert result.rows()[0]["l1"] == result[0].stats.l1_misses

    def test_serial_results_carry_spans_and_metrics(self):
        result = run(RunRequest(program="adi", levels=("noopt",), params=SMALL, steps=1))
        spans = result[0].spans
        names = {s.name for s in spans}
        assert {"compile", "trace-gen", "l1", "l2", "tlb"} <= names
        assert result[0].seconds > 0
        assert result[0].metrics["counters"].get("trace.generated") == 1


    def test_spans_show_the_work_behind_the_seconds(self):
        result = run(
            RunRequest(program="swim", levels=("noopt", "new"), params=SMALL, steps=1)
        )
        for variant, divmods in zip(result, (0, 1)):
            spans = {s.name: s.attrs for s in variant.spans}
            # default layouts decode without a division; swim's regrouped
            # columns leave one stride break
            assert spans["addresses"]["divmods"] == divmods
            for level in ("l1", "l2", "tlb"):
                assert 0 < spans[level]["heads"] <= variant.trace_length
            assert 0 < spans["tlb"]["far"] < spans["tlb"]["heads"]
            assert "far" not in spans["l1"]

    def test_one_span_per_stage_however_many_chunks(self, monkeypatch):
        from repro.interp import trace as trace_module

        request = RunRequest(program="adi", levels=("noopt",), params=SMALL, steps=1)
        whole = run(request)[0]
        monkeypatch.setattr(trace_module, "CHUNK_ACCESSES", 997)
        chunked = run(request)[0]
        assert chunked.stats == whole.stats
        assert set(chunked.timings) == set(whole.timings)
        chunks = set()
        for stage in ("trace-gen", "addresses", "l1", "l2", "tlb", "dram"):
            (sp,) = [s for s in chunked.spans if s.name == stage]
            chunks.add(sp.attrs["chunks"])
            # timings keep their keys and sum the chunks, like the span
            assert chunked.timings[stage] == sp.duration_s
        # chunks end on segment boundaries: at least 16 of <= 997 accesses
        (count,) = chunks
        assert count >= -(-whole.trace_length // 997)
        (laid,) = [s for s in chunked.spans if s.name == "addresses"]
        assert laid.attrs["accesses"] == whole.trace_length

    def test_program_without_arrays_measures_as_all_zero(self):
        from repro.lang import ProgramBuilder
        from repro.lang.builder import assign, loop

        b = ProgramBuilder("scal", params=["N"])
        s = b.scalar("s")
        b.add(loop("i", 1, b.param("N"), assign(s, s + 1)))
        program = validate(b.build())
        for engine in ("fast+codegen", "reference+interp"):
            result = run(
                RunRequest(program, levels="noopt,new", params={"N": 4}, engine=engine)
            )
            for variant in result:
                geometry = ("machine", "l1_line_bytes", "l2_line_bytes")
                counts = {
                    k: v
                    for k, v in dataclasses.asdict(variant.stats).items()
                    if k not in geometry
                }
                assert variant.trace_length == 0
                assert set(counts.values()) == {0}, counts


class TestLegacyApiRemoved:
    """The v2.0 contract: the shims are gone, not just deprecated."""

    @pytest.mark.parametrize(
        "name", ["measure", "measure_application", "run_application"]
    )
    def test_shim_gone(self, name):
        assert not hasattr(repro.harness, name)
        assert name not in repro.harness.__all__

    def test_no_internal_references_remain(self):
        from pathlib import Path

        harness_dir = Path(repro.harness.__file__).parent
        hits = []
        for path in sorted(harness_dir.rglob("*.py")):
            text = path.read_text()
            for pattern in ("def measure(", "def measure_application(",
                            "def run_application("):
                if pattern in text:
                    hits.append(f"{path}: {pattern}")
        assert not hits, hits


class TestVerifyThreading:
    def test_run_threads_verifier_to_the_compiler(self):
        program, machine = _adi()
        verifier = PassVerifier(program, SMALL, steps=1)
        run(
            RunRequest(
                program=program, levels=("fusion",), params=SMALL,
                machine=machine, steps=1, verify=verifier,
            )
        )
        assert verifier.history, "verify= must reach compile_variant"

    def test_verify_off_by_default(self):
        result = run(RunRequest(program="adi", levels=("fusion",), params=SMALL, steps=1))
        verify_spans = [s for s in result[0].spans if s.name == "verify"]
        assert not verify_spans

    def test_verify_true_adds_verify_spans(self):
        result = run(
            RunRequest(
                program="adi", levels=("fusion",), params=SMALL, steps=1, verify=True
            )
        )
        verify_spans = [s for s in result[0].spans if s.name == "verify"]
        assert verify_spans
        assert all("certifies" in s.attrs for s in verify_spans)


class TestObservabilitySinks:
    def test_serial_run_writes_event_log(self, tmp_path):
        result = run(
            RunRequest(
                program="adi", levels=("noopt", "new"), params=SMALL, steps=1,
                trace=TraceConfig(events=True, runs_root=str(tmp_path)),
            )
        )
        assert result.run_dir is not None
        events = RunLog(result.run_dir).events()
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("spec_start") == 2 and kinds.count("spec_end") == 2
        assert any(k == "span" for k in kinds)
        summary = summarize_run(result.run_dir)
        assert summary["completed"] == 2 and summary["total"] == 2
        assert summary["slowest"] is not None

    def test_parallel_runner_streams_events_and_progress(self, tmp_path, capsys):
        # one loop, two branches: the same sinks fire in-process and pooled
        for jobs in (1, 2):
            outcome = run(
                RunRequest(
                    program="adi", levels=("noopt", "new"), params=SMALL,
                    steps=1, jobs=jobs,
                    trace=TraceConfig(
                        events=True, runs_root=str(tmp_path / str(jobs)),
                        progress=True,
                    ),
                )
            )
            assert [r.level for r in outcome] == ["noopt", "new"]
            assert all(r.seconds > 0 for r in outcome)
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 2
            assert lines[0].startswith("[1/2]") and lines[1].startswith("[2/2]")
            assert "ETA" in lines[0] and "slowest" in lines[0]
            summary = summarize_run(outcome.run_dir)
            assert summary["completed"] == 2
            assert summary["events"] >= 6  # run_start/end + 2x(spec_start/end)

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        request = RunRequest(
            program="adi", levels=("noopt", "new"), params=SMALL, steps=1,
            name="renamed",
        )
        serial = run(request)
        parallel = run(dataclasses.replace(request, jobs=2))
        assert serial.rows() == parallel.rows()
        # field for field, except what stays on the worker's side
        for s, p in zip(serial, parallel):
            assert (s.program, s.level, s.params, s.stats, s.trace_length) == (
                p.program, p.level, p.params, p.stats, p.trace_length
            )
            assert set(s.timings) == set(p.timings)
            assert s.variant is not None and p.variant is None


class TestResultCacheKnob:
    def test_result_cache_off_still_replays_traces(self, tmp_path):
        request = dict(
            program="adi", levels=("noopt",), params=SMALL, steps=1,
            cache=str(tmp_path),
        )
        cold = run(RunRequest(**request, result_cache=False))
        warm = run(RunRequest(**request, result_cache=False))
        assert cold.rows() == warm.rows()
        # trace replayed from disk, but the simulation stages re-ran
        assert "trace-gen" not in warm[0].timings
        assert "l1" in warm[0].timings

    def test_result_cache_on_skips_simulation(self, tmp_path):
        request = dict(
            program="adi", levels=("noopt",), params=SMALL, steps=1,
            cache=str(tmp_path),
        )
        cold = run(RunRequest(**request))
        warm = run(RunRequest(**request))
        assert cold.rows() == warm.rows()
        assert "l1" not in warm[0].timings


class TestOneResolver:
    """run() and tune() read one resolution of the same target."""

    @pytest.mark.parametrize(
        "target, params, steps",
        [
            ("adi", {"N": 12}, None),
            ("sweep3d", {"N": 6}, 2),
            ("fft", {"n": 16}, None),
            ("fft", None, None),
            ("program", {"N": 12}, None),
        ],
    )
    def test_run_and_tune_resolve_the_same_target(self, target, params, steps):
        from repro.memsim.geometry import CacheGeometry
        from repro.programs.registry import resolve_target
        from repro.tune import TuneRequest, tune

        if target == "program":
            target = _adi()[0]
        want = resolve_target(target, params, steps)
        measured = run(
            RunRequest(program=target, params=params, steps=steps)
        ).results[0]
        tuned = tune(
            TuneRequest(
                program=target, sizes=[params] if params else None, steps=steps,
                enablers=(), fusion_levels=(0,), levels=("noopt",),
                validate_top=False, cache=False,
            )
        )
        assert measured.program == tuned.program == want.name
        assert measured.params == tuned.sizes[0] == want.params
        assert tuned.steps == want.steps
        per_step = run(RunRequest(program=target, params=params, steps=1))
        assert measured.trace_length == per_step[0].trace_length * want.steps
        geometry = CacheGeometry.from_spec(want.machine_spec)
        assert (tuned.l1_elems, tuned.l2_elems) == (
            geometry.l1_elems, geometry.l2_elems,
        )
        assert measured.stats.machine == machine_for(want.machine_spec).name

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown benchmark program"):
            run(RunRequest(program="no-such-app"))
