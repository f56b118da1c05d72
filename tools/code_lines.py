"""Count the code lines of the package and of the test suite.

A code line holds at least one token that is not a comment, and is not
part of a docstring: the string that opens a module, class or function
body, as ``ast`` finds it.  Blank lines, comment lines and docstring
lines are dropped.  Prints the count of every module under ``src/hpmin``
and ``tests`` and the total of each directory.

Run from anywhere: ``python tools/code_lines.py``.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src/hpmin", "tests")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    for directory in DIRECTORIES:
        total = 0
        for path in sorted((ROOT / directory).glob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{directory}/{path.name}: {count}")
        print(f"{directory} total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
