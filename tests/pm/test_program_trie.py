"""The pass trie belongs to the source ``Program``, not to the call.

Every front door (``compile_variant``, ``run``, ``scaling_sweep``,
``tune`` and its validation) walks ``PassManager.of(program)``: a
(program, pass prefix) executes once per process, a certified edge keeps
its verdict across calls, and all of it is collected with the program.
The oracle throughout is a *fresh* manager — ``PassManager(program)`` —
or a freshly built ``Program``; tests that count executed passes on a
registry name take the ``fresh_programs`` fixture, because which passes
are left to run depends on who compiled the name before.
"""

import gc
import weakref

import pytest
from conftest import live_snapshots, reverse_first_loops

from repro.core import OPT_LEVELS, PIPELINES, PassManager, compile_variant
from repro.core.pm import PASSES, FunctionPass
from repro.harness import RunRequest, TraceCache, run
from repro.harness.cache import layout_fingerprint
from repro.harness.sweep import scaling_sweep
from repro.lang import to_source, validate
from repro.obs import metrics
from repro.programs import registry
from repro.programs.registry import build_fft
from repro.tune import TuneRequest, tune
from repro.verify import PassLegalityError, PassVerifier

SMALL = {"N": 12}
APPS = sorted(registry.names()) + ["fft64"]


def _build(app):
    return validate(build_fft(64) if app == "fft64" else registry.get(app).build())


def _runs():
    return metrics.snapshot()["counters"].get("pm.pass.runs", 0)


# -- (i) a second compile runs nothing and returns the same thing --------------


@pytest.mark.parametrize("app", APPS)
def test_second_compile_runs_nothing_and_equals_a_fresh_manager(app):
    program = _build(app)
    bind = {} if app == "fft64" else dict(registry.get(app).default_params)
    assert len(APPS) * len(OPT_LEVELS) == 42
    for level in OPT_LEVELS:
        spec = PIPELINES[level]
        start = _runs()
        first = compile_variant(program, level)
        assert _runs() - start == first.passes_run
        assert first.passes_run + first.shared_steps == len(spec.steps)
        again = compile_variant(program, level)
        assert _runs() - start == first.passes_run, "each pass runs once"
        assert (again.passes_run, again.shared_steps) == (0, len(spec.steps))
        fresh = PassManager(program).run(spec)
        assert fresh.passes_run == len(spec.steps)
        assert again.program is first.program
        for variant in (first, again):
            assert variant.level == fresh.level == level
            assert to_source(variant.program) == to_source(fresh.program)
            assert variant.stages == fresh.stages
            assert list(variant.stages) == list(fresh.stages)
            assert variant.fusion_report == fresh.fusion_report
            assert variant.regroup == fresh.regroup
            assert layout_fingerprint(variant.layout(bind)) == layout_fingerprint(
                fresh.layout(bind)
            )
        # a variant owns its stages: the next walk must not see edits
        again.stages["input"]["poisoned"] = True


# -- (ii) run() on a shared program measures what a fresh one does -------------


def _ast_fingerprint(cache, result, steps):
    variant = result.variant
    key = cache.trace_key(
        str(variant.program), result.params, steps,
        layout_fingerprint(variant.layout(result.params)),
    )
    return cache.load_trace(key).fingerprint()


def test_run_twice_and_cold_then_warm_equal_a_fresh_program(tmp_path):
    levels = ("noopt", "fusion", "new")
    request = dict(levels=levels, params=SMALL, steps=1)
    entry = registry.get("adi")
    fresh_cache = TraceCache(tmp_path / "fresh")
    fresh = run(
        RunRequest(
            validate(entry.build()), name="adi", machine=entry.machine_spec,
            cache=fresh_cache, **request,
        )
    )
    want_rows = fresh.rows()
    want_prints = [_ast_fingerprint(fresh_cache, r, 1) for r in fresh]

    assert run(RunRequest("adi", **request)).rows() == want_rows
    start = _runs()
    assert run(RunRequest("adi", **request)).rows() == want_rows
    assert _runs() == start

    cache = TraceCache(tmp_path / "shared")
    cold = run(RunRequest("adi", cache=cache, **request))
    warm = run(RunRequest("adi", cache=cache, result_cache=False, **request))
    assert _runs() == start
    for results in (cold, warm):
        assert results.rows() == want_rows
        assert [_ast_fingerprint(cache, r, 1) for r in results] == want_prints
    assert all("trace-gen" not in r.timings for r in warm)


# -- (iii) the trie dies with its program --------------------------------------


def test_tries_are_collected_with_their_programs():
    programs = [_build("adi") for _ in range(20)]
    refs = [weakref.ref(p) for p in programs]
    for index, program in enumerate(programs):
        variant = compile_variant(program, "new", verify=index % 2 == 0)
        refs.append(weakref.ref(variant.program))  # what the leaves hold
    refs += [weakref.ref(PassManager.of(p)) for p in programs]
    assert PassManager.of(programs[0]) is PassManager.of(programs[0])
    assert all(ref() is not None for ref in refs)
    del programs, program, variant
    gc.collect()
    assert all(ref() is None for ref in refs)


# -- (iv) snapshots die with the search, however it ends -----------------------


def test_search_that_raises_leaves_no_snapshot_on_the_trie(monkeypatch):
    calls = []
    real = PASSES["fusion"]

    def exploding(program, ctx, **options):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real.run(program, ctx, **options)

    monkeypatch.setitem(PASSES, "fusion", FunctionPass("fusion", exploding))
    program = _build("adi")
    floor = live_snapshots()
    with pytest.raises(RuntimeError, match="boom"):
        tune(
            TuneRequest(
                program, sizes=[SMALL], name="adi", levels=("noopt",),
                cache=False, validate_top=False, verify=True,
            )
        )
    manager = PassManager.of(program)
    assert any(node.bags for node in manager._nodes()), "it did certify"
    assert not any(node.snapshot or node.declared for node in manager._nodes())
    assert live_snapshots() == floor


# -- (v) a failed verdict stays on its edge ------------------------------------


def test_failed_verdict_is_raised_by_every_later_verified_walk(monkeypatch):
    runs = []

    def broken(program, ctx):
        runs.append(1)
        return reverse_first_loops(program, ctx)

    monkeypatch.setitem(PASSES, "distribute", FunctionPass("distribute", broken))
    program = _build("adi")
    search = TuneRequest(
        program, sizes=[SMALL], name="adi", levels=("noopt", "fusion"),
        enablers=("distribute",), fusion_levels=(0,), regroup=False,
        cache=False, validate_top=False, verify=True,
    )
    verifier = PassVerifier(program)
    for attempt in (
        lambda: compile_variant(program, "fusion", verify=True),
        lambda: tune(search),
        lambda: compile_variant(program, "fusion", verify=verifier),
        lambda: tune(search),
    ):
        with pytest.raises(PassLegalityError, match="'distribute'") as err:
            attempt()
        assert err.value.bag.has_errors()
    assert verifier.history[-1][0] == "distribute"
    # two edges (the level's comes after ``unroll``, the candidate's does
    # not), each run once: the second round replayed both verdicts
    assert len(runs) == 2
    # unverified walks never asked
    assert compile_variant(program, "fusion").program is not None


# -- ledger (a1), (a2): the counter gates --------------------------------------


@pytest.mark.usefixtures("fresh_programs")
class TestSharedPrefixRunsOnce:
    def test_multi_level_run_executes_the_preliminary_prefix_once(self):
        """fusion1 / fusion / new are 8 + 8 + 9 steps; the six
        preliminary passes and everything else they share run once."""
        start = _runs()
        result = run(
            RunRequest("adi", levels=("fusion1", "fusion", "new"), params=SMALL, steps=1)
        )
        assert _runs() - start == 11  # 25 through one-shot managers
        compiles = [s for r in result for s in r.spans if s.name == "compile"]
        assert [s.attrs["passes_run"] for s in compiles] == [8, 2, 1]
        assert [s.attrs["shared_steps"] for s in compiles] == [0, 6, 8]

    def test_three_size_sweep_compiles_its_level_once(self):
        start = _runs()
        points = scaling_sweep("adi", ["fusion"], [8, 10, 12], steps=1)
        assert len(points) == 3
        assert _runs() - start == len(PIPELINES["fusion"].steps)

    def test_validation_recompiles_nothing(self, monkeypatch):
        """`_validate_frontier` goes through ``run()``, which finds every
        candidate it is handed already compiled by the search."""
        import repro.tune.tuner as tuner

        executed = []

        def counted(request, real=tuner.run):
            start = _runs()
            result = real(request)
            executed.append(_runs() - start)
            return result

        monkeypatch.setattr(tuner, "run", counted)
        start = _runs()
        result = tune(
            TuneRequest(
                "adi", sizes=[SMALL], enablers=("distribute",),
                fusion_levels=(0, 1), cache=False, top_k=3,
            )
        )
        assert len(result.validated) == 3
        assert executed == [0, 0, 0]  # 39 through one-shot managers
        assert _runs() > start
