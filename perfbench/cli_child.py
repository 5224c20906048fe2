"""One traced meanlab CLI process.

    python3 perfbench/cli_child.py SPANS.json -- <meanlab arguments>

Installs the benchmark's spans around meanlab's layers, runs the CLI
exactly as ``python -m meanlab`` would, writes the span totals to
SPANS.json and exits with the CLI's exit code.  Needs meanlab on
PYTHONPATH.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: cli_child.py SPANS.json -- ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import Tracer, install

    from meanlab import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
