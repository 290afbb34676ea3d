#!/usr/bin/env python3
"""Count the lines of the ``cwbind`` package: all of them, and code only.

Code lines are the lines that hold a token of a statement: blank lines,
comment-only lines and the lines of module, class and function docstrings
do not count. Run from anywhere; an optional argument names another
package directory. Exits 1 when the package's total exceeds ``LIMIT``, the
size of ``src/cwbind`` that later changes are budgeted against.

    python scripts/count_lines.py [DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cwbind"
LIMIT = 3604  # all lines of src/cwbind at the ROADMAP re-anchor that set aim 2
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = code = 0
    for path in sorted(package.glob("*.py")):
        lines, code_lines = count(path.read_text())
        total += lines
        code += code_lines
    print(f"{package.name}: {total} lines, {code} code lines")
    if total > LIMIT:
        print(f"{package.name}: {total} lines exceed the limit of {LIMIT}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
