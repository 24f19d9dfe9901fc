"""Count the code lines of each module of a package and their total.

A code line holds a token.  Docstrings (of a module, class or function),
comments and blank lines are not code; neither is a line that holds only
the end of a statement or an indentation change.  A string literal that is
not a docstring counts every line it spans.  Uses the standard library only.

Run from the repository root, or anywhere; the package directory defaults
to ``src/entwit``::

    python tools/src_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entwit"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``source`` begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docstrings, lines = _docstring_starts(source), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of each module.")
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="package directory (default: src/entwit)")
    package = parser.parse_args(argv).package
    if not package.is_dir():
        parser.error(f"not a directory: {package}")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
