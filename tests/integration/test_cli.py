"""Command-line front end tests."""

import pytest

from repro.cli import main

KERNEL = """
program kern
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1], B[i]) }
for i = 1, N - 1 { B[i] = g(A[i + 1]) }
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kern.loop"
    path.write_text(KERNEL)
    return str(path)


def test_levels(capsys):
    assert main(["levels"]) == 0
    out = capsys.readouterr().out
    for level in ("noopt", "sgi", "mckinley", "fusion", "new"):
        assert level in out


def test_apps(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for app in ("swim", "tomcatv", "adi", "sp"):
        assert app in out


def test_fuse_outputs_valid_source(kernel_file, capsys):
    assert main(["fuse", kernel_file]) == 0
    out = capsys.readouterr().out
    from repro.lang import parse, validate

    fused = validate(parse(out))
    assert fused.loop_count() == 1  # the two loops fused


def test_fuse_levels_differ(kernel_file, capsys):
    main(["fuse", kernel_file, "--level", "noopt"])
    noopt = capsys.readouterr().out
    main(["fuse", kernel_file, "--level", "fusion"])
    fused = capsys.readouterr().out
    assert noopt != fused


def test_regroup_with_params(kernel_file, capsys):
    assert main(["regroup", kernel_file, "-p", "N=16"]) == 0
    out = capsys.readouterr().out
    assert "interleave" in out
    assert "offset" in out


def test_report_on_file(kernel_file, capsys):
    assert main(["report", kernel_file, "-p", "N=513", "--levels", "noopt,new"]) == 0
    out = capsys.readouterr().out
    assert "L1 misses" in out
    assert "new" in out


def test_report_requires_params_for_files(kernel_file):
    with pytest.raises(SystemExit):
        main(["report", kernel_file])


def test_unknown_level_rejected(kernel_file):
    with pytest.raises(SystemExit):
        main(["report", kernel_file, "--levels", "warp9", "-p", "N=64"])


def test_missing_file_is_an_error(capsys):
    assert main(["fuse", "/no/such/file.loop"]) == 2


def test_bad_param_syntax(kernel_file):
    with pytest.raises(SystemExit):
        main(["regroup", kernel_file, "-p", "N"])


def test_report_with_engine_and_timings(kernel_file, capsys):
    assert (
        main(
            [
                "report",
                kernel_file,
                "-p",
                "N=128",
                "--levels",
                "noopt,new",
                "--engine",
                "reference",
                "--timings",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trace-gen" in out and "tlb" in out


def test_cache_subcommand(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["cache", "--dir", str(cache_dir)]) == 0
    assert "0 traces" in capsys.readouterr().out
    # populate via a cached report, then inspect and clear
    assert (
        main(
            [
                "report",
                "adi",
                "--levels",
                "noopt",
                "--cache",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["cache", "--dir", str(cache_dir)]) == 0
    assert "1 traces" in capsys.readouterr().out
    assert main(["cache", "--dir", str(cache_dir), "--clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 2 entries" in out and "0 traces" in out


def test_profile_prints_span_tree(capsys):
    assert main(["profile", "adi", "--level", "new", "--params", "N=40"]) == 0
    out = capsys.readouterr().out
    # nested pass spans under compile, plus every simulation stage
    for name in ("compile", "fusion", "regroup", "trace-gen", "l1", "l2", "tlb"):
        assert name in out
    assert "seconds" in out and "peak MB" in out
    assert "metric deltas:" in out
    assert "trace.generated" in out


def test_profile_json_is_schema_valid(capsys):
    import json

    from repro.obs import SCHEMA_VERSION, validate_event

    assert main(["profile", "adi", "--level", "noopt", "-p", "N=40", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["v"] == SCHEMA_VERSION
    assert data["level"] == "noopt" and data["params"] == {"N": 40}
    assert data["spans"], "profile --json must carry span events"
    for event in data["spans"]:
        validate_event(event)


def test_profile_on_file_requires_params(kernel_file):
    with pytest.raises(SystemExit):
        main(["profile", kernel_file])


def test_profile_no_memory_drops_column(kernel_file, capsys):
    rc = main(["profile", kernel_file, "-p", "N=64", "--level", "fusion", "--no-memory"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak MB" not in out


def test_runs_empty_and_populated(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    assert main(["runs"]) == 0
    assert "no run logs" in capsys.readouterr().out

    from repro.harness import RunRequest, run
    from repro.obs import TraceConfig

    run(
        RunRequest(
            program="adi", levels=("noopt",), params={"N": 40}, steps=1,
            trace=TraceConfig(events=True),
        )
    )
    assert main(["runs"]) == 0
    out = capsys.readouterr().out
    assert "adi/noopt" in out and "1/1" in out

    import json

    assert main(["runs", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["runs"]) == 1
    assert data["runs"][0]["programs"] == ["adi"]


def test_report_verify_flag(kernel_file, capsys):
    assert (
        main(
            ["report", kernel_file, "-p", "N=64", "--levels", "noopt,new", "--verify"]
        )
        == 0
    )
    assert "level" in capsys.readouterr().out


def test_pipeline_list_enumerates_every_level(capsys):
    from repro.core import OPT_LEVELS

    assert main(["pipeline", "--list"]) == 0
    out = capsys.readouterr().out
    for level in OPT_LEVELS:
        assert level in out
    assert "inline -> " in out  # pass sequences are shown


def test_pipeline_describe(capsys):
    assert main(["pipeline", "--describe", "new"]) == 0
    out = capsys.readouterr().out
    assert "fusion(max_levels=8)" in out
    assert "checkpoint: preliminary" in out


def test_pipeline_describe_unknown_level(capsys):
    assert main(["pipeline", "--describe", "fusionXYZ"]) == 1
    assert "known levels" in capsys.readouterr().err


def test_report_with_passes_override(kernel_file, capsys):
    assert (
        main(["report", kernel_file, "-p", "N=64", "--passes", "inline,simplify"])
        == 0
    )
    out = capsys.readouterr().out
    assert "passes:inline,simplify" in out


def test_report_with_bogus_pass_name(kernel_file, capsys):
    assert main(["report", kernel_file, "-p", "N=64", "--passes", "warpdrive"]) == 1
    assert "registered passes" in capsys.readouterr().err


def test_profile_shows_analysis_cache_summary(fresh_programs, capsys):
    assert main(["profile", "adi", "--level", "new", "-p", "N=40",
                 "--no-memory"]) == 0
    out = capsys.readouterr().out
    assert "analysis cache:" in out
    assert "hit rate" in out


def test_profile_static_shows_the_analyses_work(capsys):
    assert main(["profile", "adi", "--level", "new", "-p", "N=12",
                 "--no-memory", "--static"]) == 0
    out = capsys.readouterr().out
    # the attribute span's memo counters and the enumerator's, on the
    # span lines and among the metric deltas
    for token in ("attribute", "hull_hits=", "hulls=", "coherence-analyze",
                  "accesses=", "partitioned_nests=2",
                  "analysis.static.hulls", "analysis.static.hull_hits"):
        assert token in out, token


def test_verify_pass_with_passes_override(kernel_file, capsys):
    assert main(["verify-pass", kernel_file, "--passes", "inline,distribute"]) == 0
    out = capsys.readouterr().out
    assert "passes:inline,distribute" in out and "certified" in out


#: every target-taking subcommand, at flags that keep it tiny
TARGET_COMMANDS = {
    "report": ["report", "--levels", "noopt"],
    "profile": ["profile", "--level", "noopt", "--no-memory"],
    "lint": ["lint"],
    "static-reuse": ["static-reuse"],
    "parallelism": ["parallelism"],
    "coherence": ["coherence", "--threads", "2"],
    "trace export": ["trace", "export", "-o", "{tmp}/out.ast", "--level", "noopt"],
    "tune": [
        "tune", "--no-validate", "--no-cache", "--enablers", "",
        "--fusion-levels", "0",
    ],
}
#: the three target kinds (registry name incl. the study set, fft, file)
TARGET_KINDS = {
    "adi": ["adi", "-p", "N=12"],
    "sweep3d": ["sweep3d", "-p", "N=6"],
    "fft": ["fft", "-p", "n=16"],
    "file": ["{kernel}", "-p", "N=12"],
}


@pytest.mark.parametrize("kind", TARGET_KINDS)
@pytest.mark.parametrize("command", TARGET_COMMANDS)
def test_every_subcommand_resolves_every_target_kind(
    command, kind, kernel_file, tmp_path, capsys
):
    target = TARGET_KINDS[kind]
    if command == "lint":  # symbolic: takes no sizes
        target = target[:1]
    argv = [
        arg.format(tmp=tmp_path, kernel=kernel_file)
        for arg in TARGET_COMMANDS[command] + target
    ]
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, token",
    [
        (["report", "adi", "-p", "N=abc"], "'N=abc'"),
        (["report", "adi", "-p", "N"], "'N'"),
        (["tune", "adi", "--at", "N=12,M=x"], "'M=x'"),
        (["tune", "adi", "--fusion-levels", "0,b"], "'b'"),
    ],
)
def test_malformed_bindings_fail_at_parse_time(argv, token, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert token in err and "Traceback" not in err


def test_repeated_and_joined_bindings_merge(kernel_file, capsys):
    assert main(["regroup", kernel_file, "-p", "N=16", "-p", "M=2,K=3"]) == 0
    assert "{'N': 16, 'M': 2, 'K': 3}" in capsys.readouterr().out
