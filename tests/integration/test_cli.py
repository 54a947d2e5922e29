"""Command-line front end tests."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.programs import registry

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


def test_apps(capsys):
    # the target help lists every bundled program with its default sizes
    with pytest.raises(SystemExit):
        main(["report", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in registry.names():
        sizes = ", ".join(
            f"{k}={v}" for k, v in registry.get(name).default_params.items()
        )
        assert f"{name} ({sizes})" in text
    assert "fft (n=64)" in text


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
    assert main(["fuse", kernel_file, "--level", "new", "-v", "-p", "N=16"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("program kern")  # stdout stays the source
    assert "# " in captured.err and "interleave" in captured.err
    assert "offset" in captured.err


def test_report_on_file(kernel_file, capsys):
    assert main(["report", kernel_file, "-p", "N=513", "--levels", "noopt,new"]) == 0
    out = capsys.readouterr().out
    assert "L1 misses" in out
    assert "new" in out


def test_report_requires_params_for_files(kernel_file):
    with pytest.raises(SystemExit):
        main(["report", kernel_file])


def test_unknown_level_rejected(kernel_file, capsys):
    assert main(["report", kernel_file, "--levels", "warp9", "-p", "N=64"]) == 1
    assert "known levels" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    pytest.param("tune adi --at N=-4 --no-validate --no-cache",
                 "parameter 'N' must be positive, got -4", id="tune-size"),
    pytest.param("tune adi --at N=16 --at N=-2 --no-validate --no-cache",
                 "parameter 'N' must be positive, got -2", id="tune-second-size"),
    pytest.param("tune adi --at N=16 --steps -1 --no-validate --no-cache",
                 "steps must be at least 1, got -1", id="tune-steps"),
    pytest.param("report adi -p N=16 --steps -2",
                 "steps must be at least 1, got -2", id="report-steps"),
    pytest.param("static-reuse adi -p N=0",
                 "parameter 'N' must be positive, got 0", id="static-reuse-size"),
    pytest.param("parallelism adi -p N=0",
                 "parameter 'N' must be positive, got 0", id="parallelism-size"),
])
def test_sizes_and_steps_are_checked_at_the_target(line, message, capsys):
    """Every command resolves its target, and every tune size, through
    one check: a non-positive size or step count is exit 1, not a table
    of zeros."""
    assert main(shlex.split(line)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_file_is_an_error(capsys):
    assert main(["fuse", "/no/such/file.loop"]) == 2


def test_bad_param_syntax(kernel_file):
    with pytest.raises(SystemExit):
        main(["fuse", kernel_file, "-p", "N"])


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
    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
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
    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    assert "1 traces" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", str(cache_dir), "--clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 2 entries" in out and "0 traces" in out


@pytest.mark.parametrize("command", ["report", "profile"])
def test_cache_dir_alone_turns_the_cache_on(tmp_path, capsys, command):
    cache_dir = tmp_path / "cache"
    level = "--levels" if command == "report" else "--level"
    argv = [command, "adi", "-p", "N=16", "--steps", "1", level, "noopt",
            "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    assert sorted(p.name.partition("-")[0] for p in cache_dir.iterdir()) == [
        "result", "trace"
    ]


def test_profile_prints_span_tree(fresh_programs, capsys):
    # a fresh registry program: an earlier compile of adi at `new` would
    # let the pass trie serve this one, and no pass span would appear
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


@pytest.mark.parametrize(
    "n, code, counts",
    [(64, 0, "0 unknown, 0 inexact of 2"), (200, 1, "0 unknown, 1 inexact of 2")],
)
def test_parallelism_check_fails_on_an_inexact_axis(n, code, counts, tmp_path, capsys):
    # the triangular transpose: its i axis runs out of search budget at N=200
    path = tmp_path / "transpose.loop"
    path.write_text(
        "program transpose\nparam N\nreal A[N, N]\n"
        "for i = 1, N { for j = 1, i { A[i, j] = f(A[j, i]) } }\n"
    )
    assert main(["parallelism", str(path), "-p", f"N={n}", "--check"]) == code
    assert f"parallelism --check: {counts} axis verdict(s)" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert "'warpdrive'" in err and "known passes" in err


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
    # the attribute span's memo counters (the span line shows the first
    # four by name) and the enumerator's, on the span lines and among
    # the metric deltas
    for token in ("attribute", "compare_hits=", "compares=", "coherence-analyze",
                  "accesses=", "partitioned_nests=2",
                  "analysis.static.hulls", "analysis.static.hull_hits",
                  "analysis.static.compare_hits", "analysis.static.window_hits"):
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
        (["report", "adi", "-p", "=5"], "'=5'"),
    ],
)
def test_malformed_bindings_fail_at_parse_time(argv, token, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert token in err and "Traceback" not in err


def test_repeated_and_joined_bindings_merge(kernel_file, capsys):
    argv = ["fuse", kernel_file, "--level", "new", "-v"]
    assert main(argv + ["-p", "N=16", "-p", "M=2,K=3"]) == 0
    assert "{'N': 16, 'M': 2, 'K': 3}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse", "{tmp}"],
        ["fuse", "{tmp}/latin1.loop"],
        ["lint", "adi", "--baseline", "{tmp}/truncated.json"],
        ["tune", "--check", "--baseline", "{tmp}/truncated.json"],
        ["bench-membw", "--check", "--baseline", "{tmp}/truncated.json"],
        ["trace", "import", "{tmp}/missing.ast"],
        ["trace", "info", "{tmp}/missing.ast"],
        # element keys are no byte addresses: simulating them would
        # silently divide every miss count by the element size
        ["trace", "import", "{tmp}/elements.csv"],
    ],
)
def test_unreadable_inputs_fail_without_a_traceback(argv, tmp_path, capsys):
    (tmp_path / "latin1.loop").write_bytes(b"program caf\xe9\n")
    (tmp_path / "truncated.json").write_text('{"programs": {"adi": {"be')
    (tmp_path / "elements.csv").write_text(
        '# repro-address-stream v1 {"unit": "elements"}\n'
        + "".join(f"{i}\n" for i in range(4096))
    )
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path}") and "Traceback" not in err


#: where the documented command lines live
DOCS = ("README.md", "Makefile", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")


def test_every_documented_command_line_parses():
    # a folded or renamed spelling must not survive in the docs
    root = Path(__file__).resolve().parents[2]
    parser = build_parser()
    checked, broken = 0, []
    for doc in DOCS:
        for lineno, line in enumerate((root / doc).read_text().splitlines(), 1):
            for match in re.finditer(r"-m repro(?=[\s`]|$)([^`]*)", line):
                argv = shlex.split(match.group(1), comments=True)
                if not argv:  # the tool named, not a command line
                    continue
                checked += 1
                try:
                    parser.parse_args(argv)
                except SystemExit as exc:  # --help exits 0
                    if exc.code:
                        broken.append(f"{doc}:{lineno}: repro {shlex.join(argv)}")
    assert checked >= 80 and not broken, broken
