"""Print the Python source that ``meanlab.dsl.compiler`` lowers a
system's Gauss step to, and the source of the solve it lowers the sum
of the members to.

Both hold the one statement of the bracketed solve, ``_SOLVE``, with
the sum of the members inlined at each trial point: the step runs it on
its rotated targets, and ``compile_solve`` of the sum's tree is what
``kernels.invert`` runs for the quasi-arithmetic mean of the sum.

Run from the root of the repository:

    python tools/lowered.py --gen x --gen x^3

Each ``--gen`` is one member, in the generator language, in member
order.  It prints the source that the step carries, a blank line, and
the source of ``compile_solve`` of the members' sum.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from meanlab.dsl import compiler, parse
    from meanlab.dsl.ast import sum_tree

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gen", action="append", required=True, metavar="EXPR",
                        help="a member of the system, in order")
    args = parser.parse_args(argv)
    members = [parse(text) for text in args.gen]
    print(compiler.compile_step(members).source)
    print()
    print(compiler.compile_solve(sum_tree(members)).source)
    return 0


if __name__ == "__main__":
    sys.exit(main())
