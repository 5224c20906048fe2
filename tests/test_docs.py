"""The public examples run: the README's library block, its CLI
examples that show their output and its ``verify`` lines, and the
package docstring's doctest, with the results their comments state."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import meanlab
from meanlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_gives_its_commented_results():
    ns = {}
    exec(compile(_library_block(), str(README), "exec"), ns)
    assert repr(ns["mean"]([1.0, 2.0])).startswith("1.92017512")
    assert ns["report"].passed
    assert ns["report"].residual <= 1e-12
    verdict = ns["verdict"]
    assert verdict.summary() == "refuted: failed strict-monotonicity, generalized-bisymmetry"
    assert verdict.witness_residual == pytest.approx(1.25, rel=1e-6)


def _cli_examples():
    """(comment, argv, shown lines) of each ``$ meanlab`` line of the
    README's CLI block that is followed by its output; the comment is
    the last one above it."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    comment, current = "", None
    for line in block.splitlines():
        if line.startswith("# "):
            comment, current = line, None
        elif line.startswith("$ meanlab "):
            current = (comment, shlex.split(line, comments=True)[2:], [])
            examples.append(current)
        elif not line:
            current = None
        elif current is not None:
            current[2].append(line)
    return [example for example in examples if example[2]]


CLI_EXAMPLES = _cli_examples()


def test_the_readme_shows_four_cli_outputs():
    # eval on x, 2*x and on log(x), the head of compose, the exit-4 case
    assert len(CLI_EXAMPLES) == 4


@pytest.mark.parametrize("comment,argv,shown", CLI_EXAMPLES,
                         ids=[" ".join(argv) for _, argv, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_the_lines_it_shows(capsys, comment, argv, shown):
    # the shown lines appear in order, "..." and the run time aside; the
    # exit code is 0 unless the comment says "exits N"
    code = main(argv)
    captured = capsys.readouterr()
    printed = iter((captured.out + captured.err).splitlines())
    for line in shown:
        if line != "  ..." and "done in" not in line:
            assert line in printed, line
    expected = re.search(r"exits (\d)", comment)
    assert code == (int(expected.group(1)) if expected else 0)


def _verify_lines():
    """argv of each ``$ meanlab ... verify ...`` line of the README's CLI
    block, its trailing comment dropped."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[2:] for line in block.splitlines()
            if line.startswith("$ meanlab ") and " verify " in line]


VERIFY_LINES = _verify_lines()
# the verdicts the lines' comments promise: the identities and equations
# hold, x and 2*x+1 induce one mean, and the demo refutes both its means
VERDICTS = {"m1": ["pass"], "gbs": ["pass"], "bs": ["pass"], "as": ["pass"],
            "equality": ["equal"], "characterize": ["refuted", "refuted"]}


def test_the_readme_shows_six_verify_lines():
    # one line per verify suite
    assert len(VERIFY_LINES) == 6
    assert sorted(argv[-1] for argv in VERIFY_LINES) == sorted(VERDICTS)


@pytest.mark.parametrize("argv", VERIFY_LINES, ids=[" ".join(argv) for argv in VERIFY_LINES])
def test_readme_verify_line_gives_the_verdict_its_comment_states(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    # "  verdict: pass" for a suite, "  <mean>:verdict[i] ... refuted" per
    # characterized mean
    verdicts = re.findall(r"^  (?:verdict: |\S+:verdict\[\d+\] .* )(\w+)$", out, re.M)
    assert verdicts == VERDICTS[argv[-1]]


def test_package_doctests_pass():
    results = doctest.testmod(meanlab)
    assert results.attempted > 0
    assert results.failed == 0
