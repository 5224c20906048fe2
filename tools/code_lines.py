"""Print the code-only lines of each module of ``src/meanlab``.

A code-only line holds at least one token of code: blank lines, lines
that hold only a comment, and the lines of docstrings do not count.
Docstrings are found by walking the AST: the string that opens a
module, a class or a function body.  Every line a code token spans
counts, so a multi-line string that is not a docstring counts in full.

Run from the root of the repository:

    python tools/code_lines.py [package directory [parent package directory]]

It prints one line per module, ``<lines>  <path>``, in path order, and
the total last.  Given a second directory, the same package at the
parent commit (say, from ``git archive``), it prints ``<parent> ->
<change>  <path>`` for every module of either tree, with "-" for a
module that one of them lacks, and the totals last.
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


def counts(root: Path) -> dict:
    """The code-only lines of each module under ``root``, keyed by its
    path relative to ``root``, in path order."""
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "meanlab"
    change = counts(root)
    if len(argv) < 2:
        for name, count in change.items():
            print(f"{count:6d}  {root.name}/{name}")
        print(f"{sum(change.values()):6d}  total")
        return 0
    parent = counts(Path(argv[1]))
    for name in sorted(change.keys() | parent.keys()):
        before, after = (str(side.get(name, "-")) for side in (parent, change))
        print(f"{before:>6} -> {after:>6}  {root.name}/{name}")
    print(f"{sum(parent.values()):6d} -> {sum(change.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
