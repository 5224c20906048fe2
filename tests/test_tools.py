"""The repository's own scripts: ``tools/code_lines.py`` counts the
lines that hold code, and nothing else."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        text = """a string that is not a docstring
spans two lines"""
        return (x +
                math.pi)
'''


def test_code_lines_counts_only_lines_of_code():
    # import, class, def, the two lines of the string, the two of the return
    assert _code_lines().code_lines(SAMPLE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(SAMPLE)
    (package / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    assert _code_lines().main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  pkg/a.py", "     1  pkg/sub/b.py", "     8  total"]
