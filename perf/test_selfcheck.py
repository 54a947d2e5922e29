"""Self-check of the ledger itself (not part of tier-1):

    python -m pytest perf -q

Runs the benchmark in ``--quick`` mode, so it checks the plumbing —
names, units, checks, spans — and measures nothing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans as span_tools  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_ledger(*argv: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, last, proc.stdout


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    code, last, text = run_ledger("--quick", "--out", str(out))
    assert code == 0, text
    return out, last


@pytest.fixture(scope="module")
def quick_traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    code, last, text = run_ledger("--quick", "--trace", "1", "--out", str(out))
    assert code == 0, text
    return out, last


def assert_declared(last: dict, declared: list[dict]) -> None:
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for workload in BENCHMARK["workloads"]:
        for metric in declared:
            row = last["metrics"][f"{workload['name']}.{metric['name']}"]
            assert row["unit"] == metric["unit"]
            assert isinstance(row["value"], (int, float))
    for name in last["metrics"]:
        assert NAME.match(name), name


def test_quick_emits_every_end_to_end_name(quick):
    _, last = quick
    assert_declared(last, BENCHMARK["end_to_end"])
    for name, row in last["metrics"].items():
        assert row["value"] > 0, name  # a bounded metric must never read 0


def test_quick_traced_emits_every_per_layer_name(quick_traced):
    _, last = quick_traced
    assert_declared(last, BENCHMARK["per_layer"])


def test_every_layer_metric_moves_on_some_workload(quick_traced):
    _, last = quick_traced
    for metric in BENCHMARK["per_layer"]:
        if metric["name"] == "bench.oracle_s":  # 0 when expected.json covers the run
            continue
        values = [last["metrics"][f"{w['name']}.{metric['name']}"]["value"]
                  for w in BENCHMARK["workloads"]]
        assert any(values), f"{metric['name']} is 0 on every workload"


def test_span_files_parse_and_every_parent_exists(quick_traced):
    out, _ = quick_traced
    for workload in BENCHMARK["workloads"]:
        spans = span_tools.read_spans(out / f"trace-{workload['name']}.jsonl")
        assert spans, workload["name"]
        ids = {s["id"] for s in spans}
        for s in spans:
            assert s["end"] >= s["start"]
            assert s["parent"] is None or s["parent"] in ids
            assert s["workload"] == workload["name"]
        traced = [s for s in spans if s["pass"] == "traced"]
        own = span_tools.self_times(traced)
        assert all(v >= -1e-9 for v in own.values())


def test_traced_chain_equals_run(quick_traced):
    # the link-by-link pass adds its chain_equals_run / chain_fingerprint
    # checks to the count; all of them must have passed
    out, last = quick_traced
    doc = json.loads((out / "layers.json").read_text())
    per_pass = len(doc["workloads"]["fig10_sim"]["header"]["items"]) * len(
        workloads.STAT_FIELDS)
    assert doc["workloads"]["fig10_sim"]["attempted"] > 2 * per_pass
    assert last["failed"] == 0


def test_planted_wrong_expected_value_fails(tmp_path):
    doc = json.loads((HERE / "expected.json").read_text())
    key = "reuse:adi/noopt@24"
    doc["workloads"]["reuse_profile"][key]["miss_l1"] += 1
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(doc))
    code, last, text = run_ledger(
        "--workload", "reuse_profile", "--quick", "--out", str(tmp_path / "out"),
        "--expected", str(planted))
    assert code == 1, text
    assert last["correct"] is False and last["failed"] > 0
    rows = json.loads((tmp_path / "out" / "results.json").read_text())
    assert rows["workloads"]["reuse_profile"]["rows"]["failed_share"]["value"] > 0


def test_oracle_is_computed_when_expected_is_missing(tmp_path):
    code, last, text = run_ledger(
        "--workload", "reuse_profile", "--quick", "--seed", "7",
        "--out", str(tmp_path / "out"), "--expected", str(tmp_path / "none.json"))
    assert code == 0 and last["correct"], text


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perf").mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (bare / "perf" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fig10_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        base = workload.items(False)
        assert sorted(workloads.draw(workload.name, 0, base), key=repr) == sorted(
            base, key=repr)
        assert workloads.draw(workload.name, 5, base) == workloads.draw(
            workload.name, 5, base)
        moved = workloads.draw(workload.name, 5, base)
        assert moved != workloads.draw(workload.name, 6, base)
        assert sum(it.n or 0 for it in moved) == sum(it.n or 0 for it in base)
        assert all(abs(a - b) <= 2 for a, b in zip(
            sorted(it.n or 0 for it in moved), sorted(it.n or 0 for it in base)))


def test_expected_covers_every_size_a_seed_can_give():
    committed = json.loads((HERE / "expected.json").read_text())["workloads"]
    for workload in workloads.WORKLOADS.values():
        for seed in range(25):
            for it in workloads.draw(workload.name, seed, workload.items(False)):
                assert it.key in committed[workload.name], it.key


def test_pinned_sizes_match_the_registry():
    from repro.programs import registry

    for name, n in workloads.FIG10_N.items():
        assert registry.get(name).default_params == {"N": n}
    for name, n in workloads.SMALL_N.items():
        assert registry.get(name).small_params == {"N": n}


def test_compare_flags_a_regression(tmp_path, quick):
    out, _ = quick
    base = json.loads((out / "results.json").read_text())
    worse = json.loads(json.dumps(base))
    row = worse["workloads"]["fig10_sim"]["rows"]["peak_rss_mb"]
    row["value"] *= 2
    row["samples"] = [v * 2 for v in row["samples"]]
    (tmp_path / "b.json").write_text(json.dumps(worse))
    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out / "results.json"),
         str(out / "results.json")], stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout
    assert "regressed or differing rows: 0" in same.stdout
    diff = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out / "results.json"),
         str(tmp_path / "b.json")], stdout=subprocess.PIPE, text=True)
    assert diff.returncode == 1 and "regressed" in diff.stdout
