"""The tune() front door: static ranking, dedup, caching, validation,
observability, and the check_baseline CI gate."""

import json

import pytest
from conftest import live_snapshots

from repro.core.pm import OPT_LEVELS, PASSES, PassManager
from repro.lang import ReproError, validate
from repro.obs import REGISTRY, RunLog, TraceConfig
from repro.programs import registry
from repro.programs.registry import MachineSpec
from repro.tune import (
    ENABLERS,
    FUSION_LEVELS,
    TuneCache,
    TuneRequest,
    TuneResult,
    check_baseline,
    tune,
)

#: a small grid keeps one search under a couple of seconds on adi
FAST = dict(
    program="adi",
    enablers=("distribute",),
    fusion_levels=(0, 1),
    top_k=2,
    cache=False,
)


def _tune(**overrides):
    return tune(TuneRequest(**{**FAST, **overrides}))


class TestFrontDoor:
    def test_result_shape(self):
        result = _tune()
        assert isinstance(result, TuneResult)
        assert result.program == "adi"
        assert {c.label for c in result.named} == set(OPT_LEVELS)
        # 2 enabler subsets x 2 fusion levels x 2 regroup choices
        assert len(result.candidates) == 8
        assert result.candidates == sorted(
            result.candidates, key=lambda c: c.score
        )

    def test_default_sizes_come_from_registry(self):
        result = _tune(validate_top=False)
        assert result.sizes == [dict(registry.get("adi").default_params)]

    def test_named_levels_bound_the_search(self):
        """No candidate may predict fewer misses than is possible — the
        best candidate is at least as good as reproducing noopt."""
        result = _tune(validate_top=False)
        noopt = next(c for c in result.named if c.label == "noopt")
        assert result.best.score <= noopt.score

    def test_dedup_shares_scores(self):
        result = _tune(validate_top=False)
        deduped = [c for c in result.candidates if c.deduped_from]
        assert deduped, "regroup candidates must dedup against fusion ones"
        by_label = {c.label: c for c in result.candidates + result.named}
        for c in deduped:
            assert c.score == by_label[c.deduped_from].score
            assert c.analysis_seconds == 0.0

    def test_unknown_objective_rejected(self):
        with pytest.raises(ReproError, match="objective"):
            _tune(objective="bogus")

    def test_program_object_requires_sizes(self):
        from repro.lang import validate
        from repro.programs import registry

        program = validate(registry.get("adi").build())
        with pytest.raises(ReproError, match="sizes"):
            tune(TuneRequest(program=program, cache=False))

    def test_parallel_misses_objective(self):
        serial = _tune(validate_top=False, max_candidates=2)
        par = _tune(
            validate_top=False, max_candidates=2,
            objective="parallel-misses", threads=4,
        )
        assert par.objective == "parallel-misses"
        assert par.to_json()["threads"] == 4
        serial_scores = {c.label: c.score for c in serial.candidates}
        par_scores = {c.label: c.score for c in par.candidates}
        assert set(serial_scores) == set(par_scores)
        assert all(score > 0 for score in par_scores.values())

    def test_parallel_misses_folds_invalidations(self):
        # the objective charges coherence invalidation misses on top of
        # the capacity model; every scored entry reports the fold
        result = _tune(
            validate_top=False, max_candidates=2,
            objective="parallel-misses", threads=4, sizes=[{"N": 16}],
        )
        for c in list(result.candidates) + list(result.named):
            for entry in c.per_size:
                assert "invalidations" in entry, c.label
                assert entry["invalidations"] >= 0
        # adi's alternating-axis nests truly share lines at any level
        noopt = next(c for c in result.named if c.label == "noopt")
        assert noopt.per_size[0]["invalidations"] > 0

    def test_machine_override_changes_scores(self):
        small = _tune(validate_top=False, max_candidates=2,
                      machine=MachineSpec(l1_bytes=1024, l2_bytes=4096))
        big = _tune(validate_top=False, max_candidates=2,
                    machine=MachineSpec(l1_bytes=65536, l2_bytes=1 << 20))
        assert small.l1_elems == 128 and big.l1_elems == 8192
        assert small.best.score > big.best.score


class TestValidation:
    def test_top_k_measured(self):
        result = _tune()
        assert len(result.validated) == 2
        for c in result.validated:
            assert c.measured is not None
            assert c.measured["misses"] == c.measured["l1"] + c.measured["l2"]
            assert c.measured["accesses"] > 0
        assert result.rank_agreement is True

    def test_no_validate_skips_measurement(self):
        result = _tune(validate_top=False)
        assert result.validated == []
        assert result.rank_agreement is None
        assert all(c.measured is None for c in result.candidates)


class TestCaching:
    def test_warm_search_hits_cache(self, tmp_path):
        cold = _tune(cache=str(tmp_path), validate_top=False)
        # a candidate whose signature reproduces a named level (here
        # inline+simplify == noopt) resumes from the entry stored moments
        # earlier in the same search; everything else evaluates fresh
        assert sum(c.cached for c in cold.candidates) < len(cold.candidates)
        warm = _tune(cache=str(tmp_path), validate_top=False)
        assert all(c.cached for c in warm.candidates)
        assert [c.score for c in warm.candidates] == [
            c.score for c in cold.candidates
        ]
        assert warm.seconds < cold.seconds

    def test_cache_entries_share_trace_cache_dir(self, tmp_path):
        from repro.harness import TraceCache

        _tune(cache=str(tmp_path))
        info = TraceCache(tmp_path).info()
        assert info["tune"] > 0
        assert info["traces"] > 0  # validation traces land in the same root
        removed = TraceCache(tmp_path).clear()
        assert removed == info["tune"] + info["traces"] + info["results"]

    def test_key_depends_on_grid_axes(self, tmp_path):
        cache = TuneCache(tmp_path)
        base = dict(
            source_text="src", signature="inline+simplify", steps=1,
            sizes=[{"N": 8}], l1_elems=64, l2_elems=256,
            objective="misses", threads=4, schedule="static",
        )
        key = cache.key(**base)
        for field, value in [
            ("source_text", "other"),
            ("signature", "inline+simplify+regroup"),
            ("steps", 2),
            ("sizes", [{"N": 16}]),
            ("l1_elems", 128),
            ("l2_elems", 512),
            ("objective", "parallel-misses"),
        ]:
            assert cache.key(**{**base, field: value}) != key

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TuneCache(tmp_path)
        cache.store("k" * 32, {"score": 1.0})
        (tmp_path / f"tune-{'k' * 32}.json").write_text("{not json")
        assert cache.load("k" * 32) is None


class TestObservability:
    def test_events_stream(self, tmp_path):
        result = _tune(
            validate_top=False,
            trace=TraceConfig(events=True, runs_root=str(tmp_path)),
        )
        assert result.run_dir is not None
        events = RunLog(result.run_dir).events()
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        total = len(result.candidates) + len(result.named)
        assert kinds.count("spec_start") == total
        labels = {
            e["level"] for e in events if e["kind"] == "spec_start"
        }
        assert "noopt" in labels
        assert any("fusion:1" in label for label in labels)

    def test_tune_metrics_counted(self):
        before = REGISTRY.snapshot()["counters"].get("tune.evaluations", 0)
        _tune(validate_top=False, cache=False)
        after = REGISTRY.snapshot()["counters"].get("tune.evaluations", 0)
        assert after > before


@pytest.mark.usefixtures("fresh_programs")
class TestPrefixSharing:
    """One pass trie per source program: exact, repeatable counts of the
    first search over it (ISSUE 21), none for the second (ISSUE 22)."""

    @staticmethod
    def _search(monkeypatch, tmp_path, **overrides):
        import repro.core.pm.manager as manager

        snapshots = []
        real = manager.snapshot_program
        monkeypatch.setattr(
            manager, "snapshot_program",
            lambda *a, **k: snapshots.append(1) or real(*a, **k),
        )
        names = ("pm.pass.runs", "pm.pass.shared", "pm.certify.shared")
        before = REGISTRY.snapshot()["counters"]
        result = _tune(
            validate_top=False,
            trace=TraceConfig(events=True, runs_root=str(tmp_path)),
            **overrides,
        )
        after = REGISTRY.snapshot()["counters"]
        counts = {n: after.get(n, 0) - before.get(n, 0) for n in names}
        spans = [e for e in RunLog(result.run_dir).events() if e["kind"] == "span"]
        return result, counts, len(snapshots), spans

    def test_tune_static_shaped_search(self, monkeypatch, tmp_path):
        """The ledger's adi search: 67 step visits, 28 certifications."""
        result, counts, snapshots, spans = self._search(
            monkeypatch, tmp_path, sizes=[{"N": 100}]
        )
        assert counts == {
            "pm.pass.runs": 27, "pm.pass.shared": 40, "pm.certify.shared": 20,
        }
        # 8 distinct certified passes, each snapshotted after; 4 walks
        # took their own snapshot before (a snapshot lives in its walk)
        assert snapshots == 12
        evaluate = [e for e in spans if e["name"] == "tune-evaluate"]
        assert len(evaluate) == len(result.named) + len(result.candidates)
        assert sum(e["attrs"]["shared_steps"] for e in evaluate) == 40
        # a shared step ran nothing, so it has no pass span
        passes = [e for e in spans if e["depth"] == 1 and e["name"] in PASSES]
        assert len(passes) == 27

    def test_default_grid(self, monkeypatch, tmp_path):
        """160 candidates + 7 levels are 1,011 step visits over 250
        distinct prefixes; on adi ``inline``, ``split_arrays`` and
        ``constprop`` change nothing, which leaves 76 passes to run."""
        result, counts, snapshots, _ = self._search(
            monkeypatch, tmp_path, sizes=[{"N": 24}],
            enablers=ENABLERS, fusion_levels=FUSION_LEVELS,
        )
        assert len(result.candidates) == 160
        assert counts["pm.pass.runs"] == 76
        assert counts["pm.pass.runs"] + counts["pm.pass.shared"] == 1011
        # 46 distinct certified passes, each snapshotted after; 26 walks
        # took their own snapshot before, of the source or a shared prefix
        assert snapshots == 72
        assert counts["pm.certify.shared"] == 896 - 46

    def test_trie_dies_with_the_search(self, monkeypatch, tmp_path):
        """Snapshots die with the search, the trie dies with the program
        — and while it lives, a second search compiles and snapshots
        nothing."""
        import gc
        import weakref

        program = validate(registry.get("adi").build())
        search = dict(program=program, name="adi", sizes=[{"N": 100}])
        floor = live_snapshots()
        first, counts, snapshots, _ = self._search(
            monkeypatch, tmp_path / "1", **search
        )
        assert (counts["pm.pass.runs"], snapshots) == (27, 12)
        assert live_snapshots() == floor
        manager = PassManager.of(program)
        again, counts, snapshots, _ = self._search(
            monkeypatch, tmp_path / "2", **search
        )
        assert (counts["pm.pass.runs"], snapshots) == (0, 0)
        assert counts["pm.certify.shared"] == 28
        ranking = [(c.label, c.score, c.text_hash) for c in first.candidates]
        assert [(c.label, c.score, c.text_hash) for c in again.candidates] == ranking
        alive = weakref.ref(manager)
        del program, search, manager, first, again
        gc.collect()
        assert alive() is None


class TestCheckBaseline:
    def _baseline(self, tmp_path):
        result = _tune(cache=str(tmp_path))
        entry = result.to_json()
        entry["target"] = "adi"
        return {"programs": {"adi": entry}}, result

    def test_fresh_baseline_passes(self, tmp_path):
        baseline, _ = self._baseline(tmp_path)
        assert check_baseline(baseline, cache=str(tmp_path)) == []

    def test_best_worse_than_named_fails(self, tmp_path):
        baseline, _ = self._baseline(tmp_path)
        baseline["programs"]["adi"]["best"]["score"] *= 10
        failures = check_baseline(baseline, cache=str(tmp_path))
        assert any("more misses than the best named" in f for f in failures)

    def test_committed_score_regression_fails(self, tmp_path):
        baseline, _ = self._baseline(tmp_path)
        # pretend the committed prediction was better than today's analyzer
        baseline["programs"]["adi"]["best"]["score"] *= 0.5
        for record in baseline["programs"]["adi"]["named"].values():
            record["score"] *= 0.5
        failures = check_baseline(baseline, cache=False)
        assert any("regressed" in f for f in failures)

    def test_unknown_target_reported(self):
        baseline = {
            "programs": {
                "ghost": {
                    "target": "ghost",
                    "best": {"signature": "inline+simplify", "score": 1.0,
                             "analysis_seconds": 0.0},
                    "named": {"noopt": {"signature": "x", "score": 1.0,
                                        "analysis_seconds": 1e9}},
                    "sizes": [{"N": 8}], "steps": 1,
                    "l1_elems": 64, "l2_elems": 256,
                }
            }
        }
        failures = check_baseline(baseline, cache=False)
        assert any("cannot rebuild" in f for f in failures)

    def test_committed_artifact_round_trips_json(self, tmp_path):
        baseline, _ = self._baseline(tmp_path)
        text = json.dumps(baseline)
        assert check_baseline(json.loads(text), cache=str(tmp_path)) == []


class TestFftTarget:
    def test_fft_resolves_and_scores(self):
        result = tune(
            TuneRequest(
                program="fft", sizes=[{"n": 16}], enablers=(),
                fusion_levels=(0, 1), top_k=1, cache=False,
            )
        )
        assert result.program == "fft16"
        assert result.best.score > 0
        assert result.validated and result.validated[0].measured
