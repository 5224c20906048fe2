"""The public examples run: the README's library block and the package
docstring's doctest, with the results their comments state."""

import doctest
import re
from pathlib import Path

import pytest

import meanlab

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


def test_package_doctests_pass():
    results = doctest.testmod(meanlab)
    assert results.attempted > 0
    assert results.failed == 0
