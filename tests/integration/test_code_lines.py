"""``tools/code_lines.py``: the counter behind the code-line figures the
simplification changes quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line


def f(a,
      b):  # a trailing comment
    """Function docstring."""
    #: attribute comment
    x = ("one"
         "two")
    "a bare string statement"
    return x
'''


def test_counts_code_lines_only(tmp_path, capsys, monkeypatch):
    # def + its continuation, the assignment over two lines, the return
    assert code_lines.code_lines(FIXTURE) == 5
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    (tmp_path / "one.py").write_text("x = 1\n")
    files = code_lines.python_files([str(tmp_path / "pkg"), str(tmp_path / "one.py")])
    assert [f.name for f in files] == ["m.py", "one.py"]
    monkeypatch.setattr(
        "sys.argv", ["code_lines.py", str(tmp_path / "pkg"), str(tmp_path / "one.py")]
    )
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["5", "14"], ["1", "1"], ["6", "15"]]
