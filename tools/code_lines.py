"""Count the code lines of each module of ``src/wedge_billiard``.

A line is a code line when it holds a ``tokenize`` token other than a
comment, NL, NEWLINE, INDENT, DEDENT or ENDMARKER; a token over several
lines (a triple-quoted string) holds each of them.  The lines of module,
class and function docstrings, found with ``ast``, do not count.  So blank
lines, comments and docstrings are left out, and a statement split over
lines counts each line.  Only the standard library is used.

Run from anywhere:

    python3 tools/code_lines.py

It prints each module's count, sorted by module, then the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wedge_billiard"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")


if __name__ == "__main__":
    main()
