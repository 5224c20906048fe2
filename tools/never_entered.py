"""Print each function of ``src/meanlab`` that the benchmark's workloads
never enter, with its line count.

The run is ``kernels.warm_up`` and then, for seeds 1-3, every suite of
the three workloads that ``perfbench/suites.py`` builds: each command
line through ``cli.entry``, as ``python -m meanlab`` runs it, and each
library call.  A ``sys.setprofile`` hook records the code of every
Python call.  A function is a ``def`` found by walking the AST of each
module, methods and nested functions included; it is entered when a
call ran its code.

Run from the root of the repository:

    python tools/never_entered.py

It prints one line per function never entered,
``<lines>  <path>:<line>  <name>``, in path and line order, where the
lines run from the first decorator to the end of the body, and the
count and the lines of them all last.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def functions(root: Path) -> list:
    """(path, first line, name, lines) of every def under ``root``, in
    path and line order; the name is dotted through classes and
    enclosing functions, and the first line is the first decorator's."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append((path, first, name, child.end_lineno - first + 1))
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return sorted(found)


def entered(run) -> set:
    """(file, first line, name) of the code of every Python call made
    while ``run()`` runs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}


def never_entered(root: Path, run) -> list:
    """The rows of ``functions(root)`` whose code ``run()`` never enters."""
    ran = entered(run)
    return [(path, first, name, lines) for path, first, name, lines in functions(root)
            if (str(path), first, name.rpartition(".")[2]) not in ran]


def workloads() -> None:
    """``warm_up``, then every suite of the three workloads for each seed
    in SEEDS, with the benchmark's quiet log setting and every report
    written to a scratch directory."""
    from meanlab import cli
    from meanlab.kernels import warm_up
    from perfbench import suites

    os.environ["MEANLAB_LOG"] = "quiet"
    warm_up()
    argv = sys.argv
    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            for seed in SEEDS:
                for build, _ in suites.WORKLOADS.values():
                    for suite in build(seed, out_dir):
                        if suite.call is not None:
                            suite.call()
                            continue
                        sys.argv = ["meanlab", *suite.argv]
                        with contextlib.suppress(SystemExit):
                            cli.entry()
        finally:
            sys.argv = argv


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    package = ROOT / "src" / "meanlab"
    rows = never_entered(package, workloads)
    for path, first, name, lines in rows:
        print(f"{lines:6d}  {path.relative_to(package.parent)}:{first}  {name}")
    print(f"{sum(r[3] for r in rows):6d}  total, {len(rows)} of"
          f" {len(functions(package))} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
