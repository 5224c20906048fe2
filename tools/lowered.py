"""Print the Python source that ``meanlab.dsl.compiler`` lowers a
system's Gauss step to, and the source of ``kernels.invert``.

Both are emitted from the one statement of the bracketed solve: the
step inlines the sum of its members at each trial point, where
``kernels.invert`` calls its body g.

Run from the root of the repository:

    python tools/lowered.py --gen x --gen x^3

Each ``--gen`` is one member, in the generator language, in member
order.  It prints the step's source, a blank line, and the source of
``kernels.invert``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from meanlab.dsl import compiler, parse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gen", action="append", required=True, metavar="EXPR",
                        help="a member of the system, in order")
    args = parser.parse_args(argv)
    print(compiler.step_source([parse(text) for text in args.gen]))
    print()
    print(compiler.invert_source())
    return 0


if __name__ == "__main__":
    sys.exit(main())
