"""CLI tests for ``repro lint`` and ``repro verify-pass``."""

import json

import pytest

from repro.cli import main

GOOD = """
program kern
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1], B[i]) }
"""

OOB = """
program oob
param N
real A[N]
for i = 1, N { A[i] = A[i + 1] }
"""

ALIGN_ORIG = """
program align
param N
real A[N], B[N], C[N]
for i = 1, N { A[i] = f1(B[i]) }
for i = 1, N - 1 { C[i] = f2(A[i + 1]) }
"""

ALIGN_BROKEN = """
program align
param N
real A[N], B[N], C[N]
for i = 1, N {
  A[i] = f1(B[i])
  when i in [1:N - 1] { C[i] = f2(A[i + 1]) }
}
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_lint_clean_file(files, capsys):
    assert main(["lint", files("k.loop", GOOD)]) == 0
    out = capsys.readouterr().out
    assert "lint kern" in out


def test_lint_reports_out_of_bounds(files, capsys):
    assert main(["lint", files("oob.loop", OOB)]) == 1
    out = capsys.readouterr().out
    assert "V102" in out
    assert "overflow" in out


def test_lint_app_by_name(capsys):
    assert main(["lint", "adi"]) == 0
    assert "lint adi" in capsys.readouterr().out


def test_lint_json_output(files, capsys):
    assert main(["lint", files("oob.loop", OOB), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["program"] == "oob"
    assert payload["counts"]["error"] == 1
    assert payload["diagnostics"][0]["code"] == "V102"


def test_lint_strict_fails_on_warnings(files, capsys):
    dead = """
    program t
    param N
    real A[N], Z[N]
    for i = 1, N { A[i] = 0.0 }
    """
    path = files("dead.loop", dead)
    assert main(["lint", path]) == 0
    assert main(["lint", path, "--strict"]) == 1


def test_verify_pass_certifies_app(capsys):
    assert main(["verify-pass", "adi", "--levels", "fusion"]) == 0
    out = capsys.readouterr().out
    assert "ok adi/fusion" in out
    assert "fusion" in out


def test_verify_pass_json(capsys):
    assert main(["verify-pass", "adi", "--levels", "noopt", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (result,) = payload["results"]
    assert result["certified"] is True
    assert "inline" in result["passes"]
    assert payload["failures"] == 0


def test_verify_pass_before_after_certifies(files, capsys):
    rc = main([
        "verify-pass",
        "--before", files("orig.loop", ALIGN_ORIG),
        "--after", files("orig2.loop", ALIGN_ORIG),
        "--pass-name", "noop",
    ])
    assert rc == 0
    assert "certified" in capsys.readouterr().out


def test_verify_pass_rejects_broken_alignment(files, capsys):
    rc = main([
        "verify-pass",
        "--before", files("orig.loop", ALIGN_ORIG),
        "--after", files("broken.loop", ALIGN_BROKEN),
        "--pass-name", "fuse",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ILLEGAL" in out
    assert "flow dependence on A[2] violated" in out
    assert "source: A[i] = f1(B[i])  @ i=2" in out


def test_verify_pass_before_after_json(files, capsys):
    rc = main([
        "verify-pass",
        "--before", files("orig.loop", ALIGN_ORIG),
        "--after", files("broken.loop", ALIGN_BROKEN),
        "--json",
    ])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is False
    assert payload["counts"]["error"] > 0


def test_verify_pass_before_without_after_errors(files):
    with pytest.raises(SystemExit):
        main(["verify-pass", "--before", files("orig.loop", ALIGN_ORIG)])


def test_lint_requires_target_or_self():
    with pytest.raises(SystemExit):
        main(["lint"])
