"""The ``repro tune`` subcommand and ``repro pipeline --json``."""

import json

import pytest

from repro.cli import main
from repro.core.pm import PIPELINES

FAST = [
    "tune", "adi", "--enablers", "", "--fusion-levels", "0,1",
    "--top-k", "0", "--no-validate",
]


def _run(capsys, *extra, cache_dir=None):
    argv = list(FAST) + list(extra)
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    else:
        argv += ["--no-cache"]
    code = main(argv)
    return code, capsys.readouterr().out


def test_tune_table_output(capsys, tmp_path):
    code, out = _run(capsys, cache_dir=tmp_path)
    assert code == 0
    assert "adi autotune" in out
    assert "noopt" in out and "inline+simplify" in out
    assert "best:" in out


def test_tune_json_output(capsys, tmp_path):
    code, out = _run(capsys, "--json", cache_dir=tmp_path)
    assert code == 0
    payload = json.loads(out)
    entry = payload["programs"]["adi"]
    assert entry["target"] == "adi"
    assert set(entry["named"]) == {
        "noopt", "sgi", "mckinley", "fusion1", "fusion", "regroup", "new"
    }
    assert entry["best"]["spec"]["steps"][0]["name"] == "inline"
    assert isinstance(entry["strict_win"], bool)


def test_tune_json_out_merges(capsys, tmp_path):
    out_file = tmp_path / "BENCH_tune.json"
    code, _ = _run(capsys, "--json-out", str(out_file), cache_dir=tmp_path)
    assert code == 0
    first = json.loads(out_file.read_text())
    assert set(first["programs"]) == {"adi"}
    # a second run for another target merges instead of overwriting
    code = main([
        "tune", "fft", "--enablers", "", "--fusion-levels", "0",
        "--no-validate", "--no-cache", "-p", "n=16",
        "--json-out", str(out_file),
    ])
    capsys.readouterr()
    assert code == 0
    merged = json.loads(out_file.read_text())
    assert set(merged["programs"]) == {"adi", "fft16"}
    assert merged["programs"]["fft16"]["target"] == "fft"


def test_tune_requires_target(capsys):
    with pytest.raises(SystemExit, match="app names"):
        main(["tune"])


def test_tune_check_gate(capsys, tmp_path):
    out_file = tmp_path / "BENCH_tune.json"
    _run(capsys, "--json-out", str(out_file), cache_dir=tmp_path)
    code = main([
        "tune", "--check", "--baseline", str(out_file),
        "--cache-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "tune --check ok" in out
    # tamper: inflate the committed best beyond every named level
    payload = json.loads(out_file.read_text())
    payload["programs"]["adi"]["best"]["score"] *= 10
    out_file.write_text(json.dumps(payload))
    code = main([
        "tune", "--check", "--baseline", str(out_file),
        "--cache-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "regressions detected" in out


def test_tune_check_requires_baseline():
    with pytest.raises(SystemExit, match="baseline"):
        main(["tune", "--check"])


def test_tune_at_sizes(capsys, tmp_path):
    _, out = _run(capsys, "--json", "--at", "N=33", cache_dir=tmp_path)
    payload = json.loads(out)
    assert payload["programs"]["adi"]["sizes"] == [{"N": 33}]
    # -p binds the first size explicitly, --at appends more
    code = main(list(FAST) + [
        "--json", "--no-cache", "-p", "N=17", "--at", "N=33",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["programs"]["adi"]["sizes"] == [{"N": 17}, {"N": 33}]


def test_pipeline_json_registry(capsys):
    assert main(["pipeline", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "fusion" in payload["pipelines"]
    assert payload["opt_levels"][0] == "noopt"
    assert payload["passes"]["fusion"]["certify"] is True
    assert payload["passes"]["regroup"]["certify"] is False
    steps = payload["pipelines"]["fusion"]["steps"]
    assert {"name": "fusion", "options": {"max_levels": 8}} in [
        {"name": s["name"], "options": s["options"]} for s in steps
    ]


def test_pipeline_json_describe_one(capsys):
    assert main(["pipeline", "--describe", "fusion1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "fusion1"
    assert payload["steps"][-1]["name"] == "simplify"
    _assert_steps_match(payload["steps"], PIPELINES["fusion1"].steps)


def _assert_steps_match(dumped, steps):
    assert len(dumped) == len(steps)
    for entry, step in zip(dumped, steps):
        assert entry["name"] == step.name
        assert entry["options"] == dict(step.options)
        assert entry.get("checkpoint") == step.checkpoint


def test_pipeline_json_round_trips_all(capsys):
    """The shared schema: every pipeline in the dump spells its steps."""
    main(["pipeline", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["pipelines"]) == list(PIPELINES)
    for name, entry in payload["pipelines"].items():
        _assert_steps_match(entry["steps"], PIPELINES[name].steps)
