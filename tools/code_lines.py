#!/usr/bin/env python3
"""Count code lines of Python files: physical lines that hold a token
other than a comment, a docstring or a line break (a blank line holds
none), per file and in total, beside each file's physical lines.  A
directory stands for the ``*.py`` files under it.

    python3 tools/code_lines.py src/repro/core/pm src/repro/core/pipeline.py

A docstring is a statement made of string literals alone (module,
class, function or attribute docstring).  Every line a counted token
spans is a code line, so a call continued over three lines is three.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line a code line on their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def flush() -> None:
        if statement and any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement.clear()

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            flush()
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    flush()
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    """``paths`` with every directory replaced by its ``*.py`` files."""
    out: list[Path] = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="+", help="Python files or directories")
    files = python_files(ap.parse_args().paths)
    if not files:
        sys.exit("no Python files")
    total_code = total_physical = 0
    for path in files:
        text = path.read_text()
        code, physical = code_lines(text), len(text.splitlines())
        total_code += code
        total_physical += physical
        print(f"{code:7d} {physical:7d}  {path}")
    print(f"{total_code:7d} {total_physical:7d}  total (code, physical)")


if __name__ == "__main__":
    main()
