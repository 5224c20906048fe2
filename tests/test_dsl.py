"""Parser, printer, evaluator, and compiler for the generator language.

The reference semantics is ``support.eval_expr``, a plain recursive walk.  An
independent oracle below translates source text into a Python expression
and evaluates it with the math module — on inputs where no guard fires,
the two must agree to float equality.  The compiler is then tested
against ``eval_expr`` through the tree lowered to a Python body, run by
the kernels on a float and on a float64 vector, and inlined into a
one-member Gauss step; last, a tree without body leaves is lowered once
per process, and a tree with them is lowered afresh and binds its own.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meanlab import (
    Binary,
    Constant,
    EvalError,
    Expr,
    Interval,
    ParseError,
    Unary,
    Variable,
    compile_expr,
    parse,
    to_text,
)
from meanlab import Generator, GeneratorSystem, builtin_system, kernels
from meanlab.dsl import compiler
from meanlab.dsl.ast import BINARY_OPS, UNARY_OPS, X
from meanlab.dsl.compiler import CODE_CACHE_SIZE, _power_cut, compile_solve, compile_step

from support import eval_expr


def oracle_eval(source: str, x: float) -> float:
    """Evaluate DSL text with Python's own parser: ^ becomes **.

    Only valid where the guarded semantics raise nothing — callers pick
    inputs away from poles and log/sqrt domain edges.
    """
    py = source.replace("^", "**")
    return eval(  # noqa: S307 - test oracle on literal sources
        py, {"__builtins__": {}}, {"x": x, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
    )


# --- parsing the documented examples -----------------------------------


def test_parse_variable():
    assert parse("x") == Variable()


def test_cubic_plus_identity_at_two():
    assert eval_expr(parse("x^3 + x"), 2.0) == 10.0


def test_unclosed_call_reports_eof_position():
    with pytest.raises(ParseError) as exc:
        parse("log(")
    assert exc.value.position == 4


def test_a_call_needs_its_parenthesis():
    with pytest.raises(ParseError, match=r"expected '\('") as exc:
        parse("exp x")
    assert exc.value.position == 4


def test_affine_at_three():
    assert eval_expr(parse("2*x+1"), 3.0) == 7.0


def test_exp_log_identity():
    assert eval_expr(parse("exp(log(x))"), 5.0) == pytest.approx(5.0, abs=1e-12)


def test_pole_raises_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse("1/(x-1)"), 1.0)


def test_unknown_function_is_parse_error():
    with pytest.raises(ParseError):
        parse("sin(x)")


# --- precedence ---------------------------------------------------------


@pytest.mark.parametrize(
    "source,x,expected",
    [
        ("2+3*4", 0.0, 14.0),
        ("2*3^2", 0.0, 18.0),
        ("-x^2", 3.0, -9.0),  # unary minus binds looser than ^
        ("2^3^2", 0.0, 512.0),  # ^ is right-associative
        ("2^-1", 0.0, 0.5),  # factor on the right admits a signed exponent
        ("(2+3)*4", 0.0, 20.0),
        ("x - x - x", 5.0, -5.0),  # - is left-associative
        ("8/4/2", 0.0, 1.0),
        ("--x", 4.0, 4.0),
    ],
)
def test_precedence(source, x, expected):
    assert eval_expr(parse(source), x) == expected


def test_number_literals():
    assert eval_expr(parse("1.5e2"), 0.0) == 150.0
    assert eval_expr(parse("0.25"), 0.0) == 0.25
    assert eval_expr(parse("3e-1 * x"), 10.0) == pytest.approx(3.0)
    with pytest.raises(ParseError):
        parse(".25")  # fraction part is optional, leading digits are not


def test_whitespace_insignificant():
    a = parse(" x ^ 3   +x ")
    b = parse("x^3+x")
    assert a == b


# --- error positions ----------------------------------------------------


@pytest.mark.parametrize(
    "source,position",
    [
        ("log(", 4),
        ("(x", 2),
        ("x + ", 4),
        ("x x", 2),  # trailing garbage: second token
        ("2 + sin(x)", 4),
        ("@x", 0),
        ("", 0),
        ("1e400", 0),  # constants past the largest float
        ("x^1e400", 2),
    ],
)
def test_error_positions(source, position):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.position == position
    assert 0 <= exc.value.position <= len(source)


@pytest.mark.parametrize("source", ["x + * 2", "log(x))", "exp()", "x ^ ^ 2", "((x)"])
def test_error_position_monotone_under_truncation(source):
    # Cutting the input at the reported position must remove the error or
    # move it no later than where it was.
    with pytest.raises(ParseError) as exc:
        parse(source)
    pos = exc.value.position
    truncated = source[:pos]
    try:
        parse(truncated)
    except ParseError as second:
        assert second.position <= pos


# --- depth bounds -------------------------------------------------------


def _chain(op, n):
    return f" {op} ".join(["x"] * n)


@pytest.mark.parametrize("source,position", [
    ("(" * 101 + "x" + ")" * 101, 101),  # the 101st parenthesis
    ("sqrt(" * 101 + "x" + ")" * 101, 505),
    ("-" * 101 + "x", 101),
    ("x" + "^1" * 2000, 202),  # the exponent of the 101st ^
    (_chain("+", 5000), 4 * 200 - 2),  # the 200th +, above 200 levels
    (_chain("*", 201), 4 * 200 - 2),
    ("sqrt(" * 50 + _chain("+", 160) + ")" * 50, 5 * 9),  # 160 + 41 levels
], ids=["parentheses", "calls", "minus", "power", "sum", "product", "calls-over-sum"])
def test_nesting_past_the_bounds_is_a_parse_error(source, position):
    # parsing and every recursive walker of the tree stay off Python's
    # recursion limit
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.message == "expression nested too deeply"
    assert exc.value.position == position


@pytest.mark.parametrize("source", [
    "(" * 100 + "x" + ")" * 100,
    "sqrt(" * 100 + "x" + ")" * 100,
    "-" * 100 + "x",
    "x" + "^1" * 100,
    _chain("+", 200),
    _chain("*", 200),
    "sqrt(" * 50 + _chain("+", 150) + ")" * 50,
], ids=["parentheses", "calls", "minus", "power", "sum", "product", "calls-over-sum"])
def test_nesting_within_the_bounds_parses_prints_and_lowers(source):
    expr = parse(source)
    assert parse(to_text(expr)) == expr
    want = eval_expr(expr, 0.5)
    assert compile_expr(expr)(0.5) == want
    assert compile_step([expr])([0.5], 0.5, 0.5) == ([0.5], kernels.STATUS_OK)


# --- round trips --------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "x",
    "x^3 + x",
    "2*x+1",
    "exp(x) - 1",
    "log(x + 1)",
    "sqrt(x^2 + 1)",
    "-x^2 + 3*x - 2",
    "x/(x + 2)",
    "2^3^x",
    "(x + 1)*(x - 1)",
    "1/(1 + exp(-x))",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(source):
    expr = parse(source)
    reparsed = parse(to_text(expr))
    grid = Interval(0.25, 4.0).grid(64)
    for x in grid:
        a = eval_expr(expr, x)
        b = eval_expr(reparsed, x)
        assert b == pytest.approx(a, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("source", ["x^3 + x", "2*x+1", "sqrt(x + 1)", "x/(x + 2)"])
def test_eval_matches_python_oracle(source):
    for x in Interval(0.5, 3.0).grid(17):
        assert eval_expr(parse(source), x) == pytest.approx(oracle_eval(source, x), rel=1e-15)


# Random expression trees: the printer must emit text that reparses to the
# same evaluation everywhere the original is finite.

constants = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32).map(
    lambda v: Constant(float(v))
)


def exprs(consts: st.SearchStrategy[Constant] = constants) -> st.SearchStrategy[Expr]:
    leaf = st.one_of(consts, st.just(Variable()))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["neg", "exp", "log", "sqrt"]), sub).map(
                lambda t: Unary(*t)
            ),
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
        ),
        max_leaves=8,
    )


@given(exprs(), st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
def test_round_trip_random_trees(expr, x):
    try:
        want = eval_expr(expr, x)
    except EvalError:
        return  # guard fired; printer contract only covers finite points
    got = eval_expr(parse(to_text(expr)), x)
    assert got == pytest.approx(want, rel=1e-15, abs=1e-300)


def test_labels_print_integral_constants_without_a_point():
    assert Generator.from_expression("x^3", Interval(0.1, 5.0)).label == "x^3"
    assert builtin_system("x,2*x").label == "x,2*x"
    assert to_text(parse("x^2.5 - 0.5")) == "x^2.5 - 0.5"
    # repr with the point dropped, not int(), which writes 1e300 out in full
    assert to_text(Constant(1e300)) == "1e+300"


SIGNED_ZERO_TREES = [tree for c in (Constant(0.0), Constant(-0.0)) for tree in (
    *(Binary(op, c, X) for op in BINARY_OPS),
    *(Binary(op, X, c) for op in BINARY_OPS),
    *(Unary(op, c) for op in UNARY_OPS))]


@pytest.mark.parametrize("expr", SIGNED_ZERO_TREES, ids=to_text)
def test_signed_zero_constants_print_and_reparse_to_the_same_values(expr):
    # -0.0 prints as "-0", which binds as a unary minus: as a base it needs
    # parentheses, or -0^x reparses as -(0^x)
    text = to_text(expr)
    want, got = compile_expr(expr), compile_expr(parse(text))
    for x in (-2.0, -0.0, 0.0, 0.5, 2.0):
        assert repr(got(x)) == repr(want(x)), (text, x)


@given(exprs())
def test_printed_text_always_reparses(expr):
    assert parse(to_text(expr)) is not None


def test_a_body_leaf_has_no_text_form():
    leaf = kernels.guard(math.log)
    for expr in (leaf, Binary("+", Variable(), leaf), Unary("neg", leaf)):
        with pytest.raises(TypeError, match="no text form"):
            to_text(expr)
    assert eval_expr(Binary("+", Variable(), leaf), 1.0) == 1.0  # the walker calls it


# --- compiler vs the tree walker ----------------------------------------

# the lowered tree run by the kernels on one float ("lowered") and
# on a numpy float64 vector ("numpy"), and the tree inlined into a
# one-member Gauss step ("matrix"), which fails where the tree is NaN and
# otherwise gives kernels.invert's mean of the tree's fold on [x, x];
# the tests keep the names they had when trees compiled to tapes
EVALUATORS = ("numpy", "lowered", "matrix")


def lowered_eval(evaluator, expr, x):
    body = compile_expr(expr)
    if evaluator == "matrix":
        # a mean of one point shows only whether the member is finite
        # there: the tree's value is the body's, where the step succeeds
        got = compile_step([expr])([x], x, x)
        if got[1] == kernels.STATUS_NONFINITE:
            return math.nan
        fold = 0.0 + body(x)
        assert got == kernels.invert(compile_solve(expr), [fold], x, x, fold, fold)
        return body(x)
    if evaluator == "lowered":
        return kernels.eval_one(body, x)
    return kernels.eval_grid(body, np.asarray([x], dtype=np.float64))[0]


LOWERED_SOURCES = ["x", "x^2", "x^3", "2*x", "log(x)", "exp(x)", "sqrt(x)", "x^3 + x", "1/(x+1)"]


@pytest.mark.parametrize("backend", EVALUATORS)
@pytest.mark.parametrize("source", LOWERED_SOURCES)
def test_tape_agrees_with_walker(backend, source):
    expr = parse(source)
    for x in Interval(0.3, 5.0).grid(33):
        assert lowered_eval(backend, expr, x) == pytest.approx(eval_expr(expr, x), rel=1e-15)


@pytest.mark.parametrize("backend", EVALUATORS)
def test_tape_guards_return_nan(backend):
    for source, x in [("log(x)", -1.0), ("sqrt(x)", -4.0), ("1/x", 0.0), ("x^0.5", -2.0)]:
        assert math.isnan(lowered_eval(backend, parse(source), x))


# Constants and x up to 1e300: products overflow and their sum or quotient
# could come back finite, so this pins where a non-finite value stops.
wide = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


# Every evaluator computes on Python floats, which overflow to inf
# without a warning: no warning filter is needed here.
@pytest.mark.parametrize("backend", EVALUATORS)
@settings(max_examples=400, deadline=None)
@given(exprs(wide.map(Constant)), wide)
@example(parse("x^x"), -math.inf)  # a negative base to an infinite power
def test_tape_is_nan_exactly_where_the_walker_raises(backend, expr, x):
    got = lowered_eval(backend, expr, x)
    try:
        want = eval_expr(expr, x)
    except EvalError:
        assert math.isnan(got)
    else:
        assert got == want


def test_power_negative_base_integer_exponent():
    assert eval_expr(parse("x^3"), -2.0) == -8.0
    assert eval_expr(parse("x^2"), -3.0) == 9.0
    with pytest.raises(EvalError):
        eval_expr(parse("x^2.5"), -3.0)  # would leave the reals


# --- one lowering per tree -------------------------------------------------

def test_lowerings_share_code_but_call_their_own_body_leaves():
    dom = Interval(0.1, 5.0)
    # the same tree shape over different callables lowers to the same
    # source, but a tree that holds a body leaf is lowered afresh each time
    f = Generator.from_callable(lambda x: x, dom).affine(2.0, 1.0).body()
    g = Generator.from_callable(lambda x: 3.0 * x, dom).affine(2.0, 1.0).body()
    assert f.__globals__ is not g.__globals__
    assert (f(2.0), g(2.0)) == (5.0, 13.0)


@pytest.mark.parametrize("source", ["x^3 + x", "log(x) / (1 + x^2)", "x^2.5", "2*x^-1.5"])
def test_equal_trees_lower_to_one_code_object(source):
    assert compile_expr(parse(source)).__code__ is compile_expr(parse(source)).__code__
    first, second = (compile_step([parse(source), parse("x")]) for _ in range(2))
    assert first.__code__ is second.__code__
    assert compile_solve(parse(source)).__code__ is compile_solve(parse(source)).__code__


def test_the_solve_is_stated_once_and_solves_a_body_leaf_afresh():
    # the statements of the solve appear once in the compiler's source;
    # a solve of a tree with a body leaf calls its own leaf
    assert inspect.getsource(compiler).count("for _ in budget:") == 1
    dom = Interval(0.1, 5.0)
    solves = [compile_solve(Generator.from_callable(lambda x, k=k: k * x, dom).expr)
              for k in (1.0, 4.0)]
    assert solves[0] is not solves[1]
    assert [solve([2.0], 0.5, 4.0, 0.5 * k, 4.0 * k) for solve, k in zip(solves, (1.0, 4.0))] == [
        ([2.0], kernels.STATUS_OK), ([0.5], kernels.STATUS_OK)]


@pytest.mark.parametrize("exponent", [2.5, 3.0, -1.5])
def test_a_power_cut_is_a_literal_of_the_shared_code(exponent):
    body = compile_expr(parse(f"x^{exponent!r}"))
    cut = _power_cut(exponent)
    assert float(cut[2:]) in body.__code__.co_consts
    assert body.__code__ is compile_expr(parse(f"x^{exponent!r}")).__code__
    # the cut is where the lowered power turns NaN, as the walker raises
    edge = float(cut[2:])
    inside, outside = (edge, math.nextafter(edge, math.inf)) if exponent > 0 else (
        edge, math.nextafter(edge, 0.0))
    assert math.isfinite(body(inside)) and math.isnan(body(outside))
    with pytest.raises(EvalError):
        eval_expr(parse(f"x^{exponent!r}"), outside)


def test_affine_images_by_signed_zeros_keep_their_own_bodies():
    # Constant(-0.0) == Constant(0.0), so trees are kept by their repr
    x = Generator.from_expression("x", Interval(0.1, 5.0))
    minus, plus = (x.affine(1.0, b).body() for b in (-0.0, 0.0))
    assert math.copysign(1.0, minus(-0.0)) == -1.0
    assert math.copysign(1.0, plus(-0.0)) == 1.0


def test_systems_of_different_callables_never_share_a_matrix():
    dom = Interval(0.1, 5.0)
    calls = []

    def system(scale):
        def member(x):
            calls.append(scale)
            return scale * x
        return GeneratorSystem([Generator.from_callable(member, dom),
                                Generator.from_expression("x", dom)])

    # each step calls its own member, at the coordinates and in the
    # inlined sum: F = 2x solves the targets 3, 3 to 1.5, 1.5, and
    # F = 4x the targets 5, 7 to 1.25, 1.75
    one, three = system(1.0).program(), system(3.0).program()
    assert one is not three
    calls.clear()
    assert one([1.0, 2.0], 1.0, 2.0) == ([1.5, 1.5], kernels.STATUS_OK) and set(calls) == {1.0}
    calls.clear()
    assert three([1.0, 2.0], 1.0, 2.0) == ([1.25, 1.75], kernels.STATUS_OK)
    assert set(calls) == {3.0}


def test_kept_lowerings_are_bounded_least_recently_used_first():
    trees = [Binary("+", X, Constant(k + 0.25)) for k in range(CODE_CACHE_SIZE + 50)]
    first = compile_expr(trees[0])
    for tree in trees:
        compile_expr(tree)
    assert len(compiler._KEPT) <= CODE_CACHE_SIZE
    assert compile_expr(trees[-1]) is compile_expr(trees[-1])
    # the first tree was evicted long ago: it is lowered again
    assert compile_expr(trees[0]) is not first
