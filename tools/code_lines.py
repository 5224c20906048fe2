"""Print the code-only lines of each module of ``src/meanlab``.

A code-only line holds at least one token of code: blank lines, lines
that hold only a comment, and the lines of docstrings do not count.
Docstrings are found by walking the AST: the string that opens a
module, a class or a function body.  Every line a code token spans
counts, so a multi-line string that is not a docstring counts in full.

Run from the root of the repository:

    python tools/code_lines.py [package directory]

It prints one line per module, ``<lines>  <path>``, in path order, and
the total last.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
OPENS_A_BODY = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, OPENS_A_BODY) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code-only lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "meanlab"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
