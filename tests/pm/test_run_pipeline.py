"""RunRequest(pipeline=...) and fusion's access memo end to end."""

import pytest

from repro.harness import RunRequest, run
from repro.lang import TransformError
from repro.obs import metrics
from repro.programs import registry

SMALL = {"N": 16}


def _hits_delta(fn):
    before = metrics.snapshot()["counters"].get("analysis.cache.hits", 0)
    out = fn()
    after = metrics.snapshot()["counters"].get("analysis.cache.hits", 0)
    return out, after - before


class TestRunPipeline:
    def test_named_pipeline_matches_level(self):
        by_level = run(
            RunRequest(program="adi", levels=("new",), params=SMALL, steps=1)
        )
        by_pipeline = run(
            RunRequest(program="adi", pipeline="new", params=SMALL, steps=1)
        )
        assert by_pipeline[0].level == "new"
        assert by_level.rows() == by_pipeline.rows()

    def test_pass_list_pipeline_runs_serially(self):
        result = run(
            RunRequest(
                program="adi",
                pipeline=["inline", "simplify"],
                params=SMALL,
                steps=1,
            )
        )
        assert result[0].level == "passes:inline,simplify"
        # pass-list compile leaves loops unfused; same trace as noopt
        noopt = run(
            RunRequest(program="adi", levels=("noopt",), params=SMALL, steps=1)
        )
        assert result[0].trace_length == noopt[0].trace_length

    def test_spec_object_pipeline(self):
        from repro.core.pm import PIPELINES

        result = run(
            RunRequest(
                program="adi", pipeline=PIPELINES["fusion"], params=SMALL, steps=1
            )
        )
        assert result[0].level == "fusion"

    def test_bogus_pipeline_and_level_names_raise(self):
        with pytest.raises(TransformError, match="known levels"):
            run(RunRequest(program="adi", pipeline="fusionXYZ", params=SMALL))
        with pytest.raises(TransformError, match="known levels"):
            run(RunRequest(program="adi", levels=("fusionBOGUS",), params=SMALL))


class TestCacheEffectiveness:
    """Compiling ``new`` shows analysis-cache hits > 0."""

    @pytest.mark.parametrize("app", ["adi", "sp"])
    def test_compile_new_hits_analysis_cache(self, app):
        from repro.core import compile_variant
        from repro.lang import validate

        program = validate(registry.get(app).build())
        _, hits = _hits_delta(lambda: compile_variant(program, "new"))
        assert hits > 0

    def test_fusion_collects_each_node_once_and_keeps_nothing(self, monkeypatch):
        """One memo per fusion run: every distinct loop / statement is
        collected once (memo misses == collector calls), re-collections
        hit, and no memo entry outlives the pass."""
        import gc

        from repro.core import compile_variant
        from repro.core.fusion import unit
        from repro.lang import validate

        collected = []  # strong references keep every id distinct

        def counting(real):
            def collect(node, fixed):
                collected.append((node, tuple(fixed)))
                return real(node, fixed)

            return collect

        for name in ("collect_loop_accesses", "collect_stmt_accesses"):
            monkeypatch.setattr(unit, name, counting(getattr(unit, name)))
        program = validate(registry.get("sp").build())
        before = metrics.snapshot()["counters"]
        compile_variant(program, "fusion")
        after = metrics.snapshot()["counters"]
        keys = [(id(node), fixed) for node, fixed in collected]
        assert len(set(keys)) == len(keys) > 0
        misses = after["analysis.cache.misses"] - before.get(
            "analysis.cache.misses", 0
        )
        assert misses == len(keys)
        assert after["analysis.cache.hits"] > before.get("analysis.cache.hits", 0)
        gc.collect()
        assert not any(
            isinstance(o, unit.AccessMemo) and o._entries
            for o in gc.get_objects()
        )
