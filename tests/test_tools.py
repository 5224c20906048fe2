"""The repository's own scripts: ``tools/code_lines.py`` counts the
lines that hold code, and nothing else, ``tools/never_entered.py``
names the functions a run never enters, and ``tools/lowered.py`` prints
the lowered source of a Gauss step and of the solve of its sum."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _load("code_lines", ROOT / "tools" / "code_lines.py")


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


def test_code_lines_compares_a_change_with_its_parent(tmp_path, capsys):
    change, parent = tmp_path / "pkg", tmp_path / "parent" / "pkg"
    (change / "sub").mkdir(parents=True)
    (parent / "sub").mkdir(parents=True)
    (change / "a.py").write_text(SAMPLE)
    (parent / "a.py").write_text(SAMPLE + "y = 2\n")
    (change / "sub" / "new.py").write_text("x = 1\n")
    (parent / "sub" / "old.py").write_text("x = 1\ny = 2\n")
    assert _code_lines().main([str(change), str(parent)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8 ->      7  pkg/a.py",
        "     - ->      1  pkg/sub/new.py",
        "     2 ->      -  pkg/sub/old.py",
        "    10 ->      8  total"]


ENTERED_SAMPLE = '''def used():
    return helper()


def helper():
    def inner():
        return 1
    return 2


def unused():
    return 3


class K:
    def method(self):
        return 1

    @staticmethod
    def never():
        return 0
'''


def test_never_entered_names_each_function_a_run_does_not_call(tmp_path):
    tool = _load("never_entered", ROOT / "tools" / "never_entered.py")
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(ENTERED_SAMPLE)
    (package / "sub" / "b.py").write_text("def not_imported():\n    pass\n")
    sample = _load("entered_sample", package / "a.py")

    def run():
        sample.used()
        sample.K().method()

    rows = [(path.relative_to(package).as_posix(), first, name, lines)
            for path, first, name, lines in tool.never_entered(package, run)]
    # a decorated function starts at its decorator; a nested one is named
    # through its enclosing function
    assert rows == [("a.py", 6, "helper.inner", 2), ("a.py", 11, "unused", 2),
                    ("a.py", 19, "K.never", 3), ("sub/b.py", 1, "not_imported", 2)]


def test_lowered_prints_a_step_with_one_solve_loop_and_the_solve(capsys):
    tool = _load("lowered", ROOT / "tools" / "lowered.py")
    assert tool.main(["--gen", "x", "--gen", "x^3"]) == 0
    step, solve = capsys.readouterr().out.rstrip("\n").split("\n\n")
    for source, name, params in ((step, "step", ["x", "lo", "hi", "count"]),
                                 (solve, "solve", ["ys", "lo", "hi", "glo", "ghi"])):
        compile(source, f"<{name}>", "exec")
        (fn,) = ast.parse(source).body
        assert fn.name == name and [a.arg for a in fn.args.args] == params
        loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
        # one loop over the targets, and inside it the one solve loop
        assert [ast.unparse(loop.iter) for loop in loops] == ["ys", "budget"], name
    # the step ends in the solve of the sum's tree, line for line, after
    # the solve's test of its end values; the sum is inlined, not called
    body = solve.splitlines()[3:]
    assert step.splitlines()[-len(body) - 1].startswith("    ys = (")
    assert step.splitlines()[-len(body):] == body
    assert "pow(xm, (3.0))" in solve