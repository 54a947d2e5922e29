"""CLI surface of the coherence analyzer.

``repro coherence`` (text and ``--json``), ``repro report --coherence``,
the R52x codes flowing through ``repro lint --static``, and the
``--schedule`` / ``--threads`` argument validation shared by
``parallelism``, ``coherence``, ``tune`` and ``report``.
"""

import json

import pytest

from repro.cli import main

#: leading dimension 10 misaligns 4-element lines at thread-boundary
#: columns: the canonical false-sharing kernel (see test_coherence.py).
#: Two nests re-touch the boundary lines within one step, and the
#: column count lands on 28 at the default N=16 binding, so the lint
#: path (default params, steps=1) sees the invalidations.
COLSWEEP = """
program colsweep
param N
real A[10,N + 12]
real B[10,N + 12]
for j = 1, N + 12 {
  for i = 1, 10 {
    A[i,j] = B[i,j] + A[i,j]
  }
}
for j = 1, N + 12 {
  for i = 1, 10 {
    A[i,j] = f(A[i,j])
  }
}
"""


@pytest.fixture
def colsweep_file(tmp_path):
    path = tmp_path / "colsweep.dsl"
    path.write_text(COLSWEEP)
    return str(path)


def test_coherence_text_report(capsys):
    assert main(["coherence", "adi", "-p", "N=12"]) == 0
    out = capsys.readouterr().out
    assert "adi" in out
    assert "invalidation" in out


def test_coherence_json_payload(capsys):
    assert main([
        "coherence", "adi", "-p", "N=12", "--threads", "4", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["program"] == "adi"
    assert payload["threads"] == 4
    assert payload["schedule"] == "static"
    assert len(payload["invalidations"]) == 4
    assert sum(payload["invalidations"]) > 0
    assert payload["accesses"] > 0


def test_coherence_on_a_dsl_file(capsys, colsweep_file):
    assert main([
        "coherence", colsweep_file, "-p", "N=16", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["program"] == "colsweep"
    assert sum(payload["invalidations"]) == 4


def test_coherence_respects_schedule(capsys, colsweep_file):
    assert main([
        "coherence", colsweep_file, "-p", "N=16",
        "--schedule", "static,1", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schedule"] == "static,1"
    # shredding the chunks multiplies the boundary false sharing
    assert sum(payload["invalidations"]) > 4


def test_coherence_needs_a_target():
    with pytest.raises(SystemExit, match="all-apps"):
        main(["coherence"])


@pytest.mark.parametrize("command", ["coherence", "parallelism"])
def test_bad_schedule_rejected_at_parse_time(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "adi", "--schedule", "bogus"])
    err = capsys.readouterr().err
    assert "schedule" in err


@pytest.mark.parametrize("command", ["coherence", "parallelism", "tune", "report"])
@pytest.mark.parametrize("threads", ["0", "64"])
def test_bad_thread_count_rejected_at_parse_time(command, threads, capsys):
    # one automaton, one rule, checked before any analysis runs
    with pytest.raises(SystemExit) as exit_info:
        main([command, "adi", "--threads", threads])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "1..63" in err and "Traceback" not in err


def test_report_coherence_table(capsys):
    assert main([
        "report", "tomcatv", "-p", "N=12", "--coherence",
    ]) == 0
    out = capsys.readouterr().out
    assert "coherence prediction" in out
    assert "invalidations" in out
    # one row per optimization level of the report
    assert "noopt" in out


def test_lint_static_reports_false_sharing(capsys, colsweep_file):
    # the acceptance lint: an unpadded kernel earns a confirmed R520
    main(["lint", colsweep_file, "--static"])
    out = capsys.readouterr().out
    assert "R520" in out
    assert "false sharing" in out


def test_lint_static_clears_after_padding(capsys, tmp_path):
    path = tmp_path / "padded.dsl"
    path.write_text(COLSWEEP.replace("[10,", "[12,"))
    main(["lint", str(path), "--static"])
    out = capsys.readouterr().out
    assert "R520" not in out
