"""The diagnostic-code registry and ``lint --explain`` snapshot.

The registry in ``repro.verify.codes`` is the single declaration point
for every stable diagnostic id; this file pins its hygiene so the table
cannot rot: no duplicate ``_register`` calls in the source, every code
the source uses registered, every code documented (non-empty summary AND
full explanation), every family prefix known, and the CLI ``lint
--explain`` / ``lint --codes`` paths rendering all of it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.verify.diagnostics import Severity
from repro.verify.codes import (
    FAMILIES,
    REGISTRY,
    all_codes,
    explain_code,
    format_code_table,
    get_code,
)

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
CODES_SOURCE = PACKAGE / "verify" / "codes.py"


def test_no_duplicate_register_calls_in_source():
    # the registry dict asserts at import, but a duplicate would then
    # hide behind whichever registration ran first — scan the source
    text = CODES_SOURCE.read_text()
    declared = re.findall(r'_register\(\s*\n?\s*"([A-Z]\d{3})"', text)
    assert len(declared) == len(set(declared)), (
        f"duplicate diagnostic ids declared: "
        f"{sorted({c for c in declared if declared.count(c) > 1})}"
    )
    assert set(declared) == set(REGISTRY), (
        "source scan and registry disagree — _register call style changed?"
    )


def test_every_code_used_in_the_source_is_registered():
    # emitting sites construct diagnostics by code literal; each of those
    # must have a registry entry for --explain and the --codes table
    used = {
        code
        for path in PACKAGE.rglob("*.py")
        if path != CODES_SOURCE
        for code in re.findall(r'"([VLRS]\d{3})"', path.read_text())
    }
    assert len(used) >= 31, sorted(used)
    assert used <= set(REGISTRY), sorted(used - set(REGISTRY))


def emit_sites(source: str) -> list[tuple[int, str, str]]:
    """``(line, code, severity)`` of each ``.error`` / ``.warning``
    / ``.info`` call in ``source`` whose first argument is a literal code."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("error", "warning", "info")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and re.fullmatch(r"[A-Z]\d{3}", str(node.args[0].value))
        ):
            found.append((node.lineno, node.args[0].value, node.func.attr))
    return found


def test_every_literal_emit_site_uses_the_registered_severity():
    # ``lint --explain`` prints the registered severity and ``lint
    # --strict`` fails on the emitted one: the two must agree
    sites = {
        f"{path.relative_to(PACKAGE)}:{line}": (code, severity)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, code, severity in emit_sites(path.read_text())
    }
    assert len(sites) >= 30, sorted(sites)
    wrong = {
        where: (code, severity, REGISTRY[code].severity.name.lower())
        for where, (code, severity) in sites.items()
        if Severity[severity.upper()] != REGISTRY[code].severity
    }
    assert not wrong, wrong


def test_every_code_is_documented():
    assert all_codes(), "registry is empty"
    for info in all_codes():
        assert re.fullmatch(r"[A-Z]\d{3}", info.code), info.code
        assert info.family in FAMILIES, f"{info.code}: unknown family"
        assert info.summary.strip(), f"{info.code}: empty summary"
        assert info.doc.strip(), f"{info.code}: empty doc"
        assert len(info.doc.strip()) > len(info.summary.strip()), (
            f"{info.code}: doc should explain more than the summary line"
        )


def test_every_code_explains():
    for info in all_codes():
        text = explain_code(info.code)
        assert info.code in text
        assert info.summary in text
        assert FAMILIES[info.family] in text


def test_coherence_codes_are_registered():
    # the R52x sub-family introduced with the coherence analyzer
    assert get_code("R520").summary.startswith("false-sharing")
    assert "pad" in get_code("R520").doc.lower()
    assert "true sharing" in get_code("R521").summary
    assert "schedule" in get_code("R522").summary


def test_lookup_is_case_insensitive_and_helpful():
    assert get_code("r520").code == "R520"
    with pytest.raises(KeyError, match="known codes"):
        get_code("R999")


def test_code_table_groups_every_code():
    table = format_code_table()
    for info in all_codes():
        assert info.code in table
    for fam in sorted({i.family for i in all_codes()}):
        assert f"{fam}xxx — {FAMILIES[fam]}" in table


def test_cli_lint_explain_snapshot(capsys):
    # every registered code renders through the real CLI path
    for info in all_codes():
        assert main(["lint", "--explain", info.code]) == 0
        out = capsys.readouterr().out
        assert out.strip(), f"lint --explain {info.code} printed nothing"
        assert info.code in out


def test_cli_lint_codes_table(capsys):
    assert main(["lint", "--codes"]) == 0
    out = capsys.readouterr().out
    for code in ("V001", "S501", "R520", "R521", "R522"):
        assert code in out
