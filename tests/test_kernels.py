"""Kernel contracts: lowered trees bit for bit with the tree walker,
lowered Gauss steps bit for bit with ``kernels.invert`` on the folds of
the member bodies, one fused Gauss step and ``gqam`` bit for bit with
the rotated means computed from the member bodies, fused orbits with
the generic Gauss loop, and status codes that classify every failure
mode."""

import ast
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from meanlab import (
    Generator,
    GeneralizedQuasiArithmeticMean,
    GeneratorSystem,
    Interval,
    builtin_systems,
    cyclic_mapping,
    gauss_iterate,
    gqam_eval,
    kernels,
    sum_generators,
)
from meanlab.dsl import Binary, Constant, Unary, X, compile_expr, parse
from meanlab.dsl.ast import sum_tree
from meanlab.dsl.compiler import compile_solve, compile_step
from meanlab.errors import EvalError
from meanlab.kernels import (
    STATUS_BUDGET,
    STATUS_NONFINITE,
    STATUS_OK,
    STATUS_RANGE,
    guard,
    warm_up,
)

from support import eval_expr, reference_step, solve_of, step_bits


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def oracle():
    """The benchmark's 40-digit reference, ``perfbench/oracle.py``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT))
        from perfbench import oracle
    return oracle


def body(source):
    return compile_expr(parse(source))


def program(*sources, domain=Interval(0.1, 5.0)):
    """The Gauss step of the system of the given expression members."""
    members = [Generator(domain, expr=parse(s), label=s, validate=False) for s in sources]
    return GeneratorSystem(members).program()


def reference_gqam(bodies, total, xs):
    """The generalized mean from the member bodies, as (value, status):
    each member at its own coordinate, summed in member order, then the
    sum body solved for on [min xs, max xs], given its values there."""
    s = 0.0
    for b, x in zip(bodies, xs):
        v = b(x)
        if math.isnan(v):
            return math.nan, STATUS_NONFINITE
        s += v
    lo, hi = min(xs), max(xs)
    return solve(total, s, lo, hi)


# --- evaluation -------------------------------------------------------------


EVAL_SOURCES = ["x", "2*x+1", "x^3+x", "log(x)", "exp(x)", "x^2/(1+x)"]


@pytest.mark.parametrize("source", EVAL_SOURCES)
def test_eval_one_matches_grid(source):
    b = body(source)
    xs = np.linspace(0.1, 5.0, 37)
    grid = kernels.eval_grid(b, xs)
    for x, want in zip(xs, grid):
        assert kernels.eval_one(b, float(x)) == want


@pytest.mark.parametrize(
    "source,x",
    [("log(x)", -1.0), ("log(x)", 0.0), ("sqrt(x)", -4.0), ("1/x", 0.0), ("exp(x)", 1e4)],
)
def test_eval_one_guards_with_nan(source, x):
    assert math.isnan(kernels.eval_one(body(source), x))


# every op and guard, overflow into each guard, exp on both sides of its
# cut-off, cancellation to 0 and to -0, and powers with negative bases;
# the inlined power with a literal exponent on every branch: x^3 on both
# sides of its overflow guard (1e102, 1e103), a negative base that falls
# back to power, negated and tiny exponents
LOWERING_SOURCES = [
    "x", "-x", "2.5", "-2.5", "x - -2", "x + 1e300", "x*1e300*1e10", "x*x*x*x", "1/x",
    "x/x/x", "(x - 1)/(x - 1)", "exp(x)", "exp(-x)", "exp(x)/x", "exp(x - 0.5)", "log(x)",
    "log(log(x))", "log(x)*x", "sqrt(x)", "sqrt(x)^3", "x^0.5", "x^-2", "2^x", "x^x",
    "-2*x^3 + x^2", "0*x", "-(0*x)", "x^3", "(x - 1)^3", "x^-0.5", "x^1e-300", "x^-0",
]
LOWERING_POINTS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
    709.0, 709.5, -709.0, -709.5, 1.0, -1.0, 0.5, 2.5, -3.0, 1e102, 1e103, -1e102, -1e103,
]
# trees that hold guarded callables as leaves, NaN in places: a bare body,
# a body under each kind of node, and one body at two leaves
_CUBE = guard(lambda x: x**3)
_LOG = guard(math.log)
_GAP = guard(lambda x: math.nan if -1.0 < x < 1.0 else x)
BODY_LEAF_TREES = {
    "cube": _CUBE,
    "cube + x": Binary("+", _CUBE, X),
    "log*2.5 + -1": Binary("+", Binary("*", _LOG, Constant(2.5)), Constant(-1.0)),
    "exp(log)": Unary("exp", _LOG),
    "-gap": Unary("neg", _GAP),
    "sqrt(gap)": Unary("sqrt", _GAP),
    "cube^3": Binary("^", _CUBE, Constant(3.0)),
    "1/gap": Binary("/", Constant(1.0), _GAP),
    "cube + log + cube": Binary("+", Binary("+", _CUBE, _LOG), _CUBE),
}
NAN_BITS = struct.pack("<d", math.nan)


def _outcome(evaluate):
    # the value's bits, or the exception the evaluation raised; the
    # walker's EvalError reads as NaN, what a body returns in its place
    try:
        return struct.pack("<d", evaluate())
    except EvalError:
        return NAN_BITS
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# numpy scalars warn where floats overflow silently: these filter the
# warnings of the np.float64 arguments below, not of any evaluator
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("source", [*LOWERING_SOURCES, *(
    pytest.param(tree, id=name) for name, tree in BODY_LEAF_TREES.items())])
def test_lowered_tape_matches_the_stack_machine_bit_for_bit(source):
    # the name is older than the tree lowering; the reference is the tree
    # walker eval_expr, on DSL text and on trees with body leaves
    expr = parse(source) if isinstance(source, str) else source
    lowered = compile_expr(expr)
    step = compile_step([expr])
    for x in LOWERING_POINTS:
        want = _outcome(lambda: eval_expr(expr, x))
        # a caller of Generator.body may pass np.float64; the package never does
        for arg in (x, np.float64(x)):
            assert _outcome(lambda: lowered(arg)) == want, (source, arg)
        assert_one_member_step(step, expr, x)


def assert_one_member_step(step, expr, x):
    # a one-member step folds the walker's value onto 0.0 and fails where
    # the walker raises; its one mean, on the bracket [x, x], is what
    # kernels.invert gives for that fold there
    try:
        fold = 0.0 + eval_expr(expr, x)
    except EvalError:
        want = None, STATUS_NONFINITE
    else:
        want = kernels.invert(compile_solve(expr), [fold], x, x, fold, fold)
    assert step_bits(step([x], x, x)) == step_bits(want), (expr, x)


def _walker_flip(c):
    """The float next to which x^c starts to be NaN in the walker: the
    greatest passing base for c > 0, the least for c < 0, found by
    bisection over the bit patterns of the positive floats."""
    expr = parse(f"x^{c!r}")

    def base(bits):
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    def fails(bits):
        return _outcome(lambda: eval_expr(expr, base(bits))) == NAN_BITS

    lo, hi = 1, struct.unpack("<Q", struct.pack("<d", sys.float_info.max))[0]
    edge = fails(lo)
    assert edge != fails(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fails(mid) == edge else (lo, mid)
    return base(hi if edge else lo)


@pytest.mark.parametrize("c", [2, 3, 7.3, 1e6, 1e16, 1e17, 1e300, -2, -0.96, -1e16])
def test_a_literal_power_fails_exactly_where_the_walker_does(c):
    # the lowered x^c tests its base against a cut computed once; at the
    # walker's flip and one ulp on either side it gives the walker's
    # value, NaN included, and never raises (a cut one ulp too high lets
    # pow overflow at c = 1e17)
    expr = parse(f"x^{c!r}")
    lowered = compile_expr(expr)
    step = compile_step([expr])
    flip = _walker_flip(c)
    for x in (math.nextafter(flip, 0.0), flip, math.nextafter(flip, math.inf)):
        want = _outcome(lambda: eval_expr(expr, x))
        assert _outcome(lambda: lowered(x)) == want, (c, x)
        assert_one_member_step(step, expr, x)


def test_literal_powers_take_no_log():
    assert "log" not in compile_expr(parse("x + x^2 + x^3")).__code__.co_names


def test_sum_and_affine_bodies_are_their_members_values_bit_for_bit():
    # a sum is the left-folded tree f + g + h and an affine image the tree
    # f*a + b; their bodies give those values, NaN where one is not finite
    dom = Interval(0.1, 5.0)
    f, g, h = (Generator.from_expression(s, dom) for s in ("x^3", "log(x)", "2*x + 1"))
    total = sum_generators([f, g, h]).body()
    image = f.affine(2.5, -1.0).body()
    for x in LOWERING_POINTS:
        fx, gx, hx = f.body()(x), g.body()(x), h.body()(x)
        for got, want in ((total(x), fx + gx + hx), (image(x), fx * 2.5 + -1.0)):
            want = want if math.isfinite(want) else math.nan
            assert struct.pack("<d", got) == struct.pack("<d", want), x


# --- lowered Gauss steps -----------------------------------------------------


# negated literals, 1/x at 0, the log/sqrt/exp guards, and the inlined
# power either side of its overflow guard; members 1 and 11 keep their
# result in the same post-order slot, so names that do not keep member
# and coordinate apart ("m1" "11" and "m11" "1") would clash at n = 12
MATRIX_TREES = [parse(s) for s in (
    "x", "x^3", "1/x", "log(x)", "sqrt(x)", "exp(x)", "-x + -2.5", "x - -2", "x^-0.5",
    "exp(-x)*2", "(x - 1)^3", "2^x")]
MATRIX_CALLABLES = [math.log, lambda x: 1 / x, lambda x: x**3, math.sqrt, math.exp,
                    lambda x: -x, lambda x: x * 1e300, lambda x: 0.0 * x]
MATRIX_POINTS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.5, 1e102, 1e103, -1e103, 709.5, 1e-300,
                 math.inf, -math.inf, math.nan]
BENIGN_POINTS = [0.5, 1.0, 1.5, 2.5, 3.75]


def matrix_members(kind, n):
    """n members as compile_step takes them (trees or bodies) and as
    bodies; the kind "tapes", the trees' former form, is kept as the
    tests' id."""
    members = []
    for j in range(n):
        if kind == "tapes" or (kind == "mixed" and j % 2 == 0):
            members.append(MATRIX_TREES[j % len(MATRIX_TREES)])
        else:
            members.append(guard(MATRIX_CALLABLES[j % len(MATRIX_CALLABLES)]))
    bodies = [m if callable(m) else compile_expr(m) for m in members]
    return members, bodies


def bits(result):
    return None if result is None else [[struct.pack("<d", v) for v in part] for part in result]


@pytest.mark.parametrize("kind", ["tapes", "callables", "mixed"])
@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_member_matrix_is_the_fold_of_the_member_bodies(kind, n):
    # the step's member values, folded into its targets and F(mn), F(mx),
    # solved on [mn, mx] with the sum inlined, are kernels.invert on the
    # folds of the member bodies, with the sum tree's body: every status
    # and solution, or the failure where a member value is NaN
    members, bodies = matrix_members(kind, n)
    step = compile_step(members)
    total = compile_expr(sum_tree(members))
    rng = np.random.default_rng(n)
    seen = set()
    for trial in range(300):
        pool = BENIGN_POINTS if trial % 2 else MATRIX_POINTS
        x = [pool[i] for i in rng.integers(len(pool), size=n)]
        want = reference_step(bodies, total, x)
        assert step_bits(step(x, min(x), max(x))) == step_bits(want), (kind, n, x)
        seen.add(want[0] is None)
    assert seen == {True, False}


def test_a_system_matrix_inlines_tapes_and_calls_bodies():
    dom = Interval(0.1, 5.0)
    cube = Generator.from_callable(lambda x: x**3, dom, label="cube")
    system = GeneratorSystem([Generator.from_expression("x^2", dom), cube,
                              Generator.from_expression("log(x)", dom)])
    step = system.program()
    assert system.program() is step  # made once
    bodies = [g.body() for g in system.generators]
    total = system.sum_generator().body()
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0.1, 5.0, 3).tolist()
        for count in (1, 3):
            assert step_bits(step(x, min(x), max(x), count)) == step_bits(
                reference_step(bodies, total, x, count))
    assert step([1.0, 2.0, -1.0], -1.0, 2.0) == (None, STATUS_NONFINITE)


# --- inversion --------------------------------------------------------------


def solve(g, y, lo, hi, glo=None, ghi=None):
    """The solve of g(x) = y on [lo, hi], given g's values at both ends
    (g's own unless stated), as (x, status): one target's solve, whose x
    is NaN or, where the budget ran out, a midpoint on a failure.  The
    solve is the one ``compile_solve`` lowers from the body g."""
    xs, status = kernels.invert(solve_of(g), [y], lo, hi, g(lo) if glo is None else glo,
                                g(hi) if ghi is None else ghi)
    assert len(xs) == 1
    return xs[0], status


def test_invert_finds_root():
    val, status = solve(body("x^3+x"), 10.0, 0.0, 5.0)
    assert status == STATUS_OK
    assert val == pytest.approx(2.0, abs=1e-9)


def test_invert_endpoint_fast_path():
    val, status = solve(body("x"), 0.0, 0.0, 10.0)
    assert status == STATUS_OK and val == 0.0


def test_invert_reports_range():
    val, status = solve(body("x"), -5.0, 0.0, 10.0)
    assert status == STATUS_RANGE
    assert math.isnan(val)


def test_invert_reports_budget(monkeypatch):
    monkeypatch.setattr(kernels, "INVERT_BUDGET", 0)
    monkeypatch.setattr(kernels, "INVERT_TOL", 0.0)
    val, status = solve(body("x"), 5.0, 0.0, 10.0)
    assert status == STATUS_BUDGET
    assert 0.0 <= val <= 10.0  # midpoint of the last bracket


def test_invert_reports_nonfinite():
    val, status = solve(body("log(x)"), 0.5, -1.0, 10.0)
    assert status == STATUS_NONFINITE
    assert math.isnan(val)


def test_invert_reports_nonfinite_inside_the_bracket():
    # finite at both ends, NaN where the first secant step lands
    g = guard(lambda x: math.nan if 0.4 < x < 0.6 else x)
    val, status = solve(g, 0.5, 0.0, 1.0)
    assert status == STATUS_NONFINITE
    assert math.isnan(val)


@pytest.mark.parametrize("source,lo,hi,calls", [
    ("x^3+x", 0.1, 5.0, 141),
    ("3*log(x)", 0.1, 5.0, 151),
    ("3*log(x)", 1.0 - 1e-13, 1.0 + 1e-13, 192),
])
def test_invert_takes_the_pinned_steps(source, lo, hi, calls):
    # the body calls of 20 solves across the range: the same arithmetic
    # takes the same steps
    g = body(source)
    count = 0

    def counted(x):
        nonlocal count
        count += 1
        return g(x)

    glo, ghi = g(lo), g(hi)
    for k in range(1, 21):
        val, status = solve(counted, glo + (ghi - glo) * k / 21, lo, hi, glo, ghi)
        assert status == STATUS_OK
    assert count == calls


def test_invert_is_relative_below_one():
    # the mean of 1e-4 and 5e-4 under x^3: every value is far below 1
    from mpmath import cbrt, mp, mpf

    mp.dps = 40
    y = (1e-4**3 + 5e-4**3) / 2
    val, status = solve(body("x^3"), y, 1e-4, 5e-4)
    assert status == STATUS_OK
    assert abs(val / cbrt(mpf(y)) - 1) <= 1e-9


def test_invert_accepts_float_resolution_at_a_zero_crossing():
    # 3*log(x) crosses 0 inside a bracket a few hundred ulp wide, where
    # no x reaches a residual relative to the bracket's tiny values
    g = body("3*log(x)")
    lo, hi = 1.0 - 1e-13, 1.0 + 1e-13
    for y in np.linspace(3 * math.log(lo), 3 * math.log(hi), 41):
        val, status = solve(g, float(y), lo, hi)
        assert status == STATUS_OK
        assert lo <= val <= hi


@pytest.mark.parametrize("smallest,largest", [(1e-6, 1.0), (1e-9, 1e-6)])
def test_invert_never_accepts_a_target_inside_a_jump(smallest, largest):
    # g(x) = x + j*[x >= c] on (0, 10) reaches no target strictly inside
    # its jump, so the bracket closes on c without a root.  The weights
    # shrink the kept endpoint's value far below its true residual, the
    # more so the smaller the jump; the acceptance at adjacent floats must
    # read the true one.
    rng = np.random.default_rng(29)
    n = 2000
    false_accepts = []

    def g(x):  # one body, so one lowered solve, for every c and j
        return x + j if x >= c else x

    for c, j, t in zip(rng.uniform(0.5, 9.5, n),
                       np.exp(rng.uniform(math.log(smallest), math.log(largest), n)),
                       rng.uniform(0.0, 1.0, n)):
        c, j = float(c), float(j)
        y = c + float(t) * j
        x, status = solve(g, y, 0.0, 10.0)
        if status == STATUS_OK and abs(g(x) - y) > kernels.INVERT_TOL * max(1.0, abs(y)):
            false_accepts.append((c, j, y, x))
    assert false_accepts == []


def test_one_solve_call_is_the_solves_of_its_targets():
    # the targets share the bracket and its values; each is solved as if
    # alone, and the first that fails ends the call with its status
    g = body("x^3+x")
    lo, hi = 0.1, 5.0
    glo, ghi = g(lo), g(hi)
    ys = [glo, *(glo + (ghi - glo) * k / 7 for k in range(1, 7)), ghi]
    xs, status = kernels.invert(solve_of(g), ys, lo, hi, glo, ghi)
    assert status == STATUS_OK
    assert bits([xs]) == bits([[solve(g, y, lo, hi)[0] for y in ys]])
    xs, status = kernels.invert(solve_of(g), [ys[3], ghi + 1.0, ys[4]], lo, hi, glo, ghi)
    assert status == STATUS_RANGE and len(xs) == 2
    assert xs[0] == solve(g, ys[3], lo, hi)[0] and math.isnan(xs[1])
    xs, status = kernels.invert(solve_of(g), ys, lo, hi, math.nan, ghi)
    assert status == STATUS_NONFINITE and len(xs) == 1 and math.isnan(xs[0])


@pytest.mark.parametrize("y", [math.inf, -math.inf])
def test_an_infinite_target_is_out_of_range(y):
    # its residual at the nearer end and its loose tolerance are both
    # infinite: the end test must not read inf <= inf as a pass
    val, status = solve(body("x"), y, 1e308, 1.5e308)
    assert status == STATUS_RANGE and math.isnan(val)


def test_a_bracket_near_the_largest_float_halves_without_overflow(monkeypatch):
    # a + b overflows on [1e308, 1.5e308]: the bisection midpoint and the
    # midpoint returned where the budget runs out are 0.5*a + 0.5*b
    g = body("x/4 + x/4")
    assert solve(g, 0.625e308, 1e308, 1.5e308) == (1.25e308, STATUS_OK)
    monkeypatch.setattr(kernels, "INVERT_BUDGET", 0)
    assert solve(g, 0.6e308, 1e308, 1.5e308) == (1.25e308, STATUS_BUDGET)


def test_kernels_run_a_lowered_solve_and_lower_nothing():
    # invert is a function of this module that runs the solve it is
    # given; the module imports nothing of the compiler at its top
    assert kernels.invert.__code__.co_filename == kernels.__file__
    tree = ast.parse(Path(kernels.__file__).read_text())
    imported = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert not any("dsl" in (name or "") for name in imported)


# bracket values from the smallest subnormal to 1e308, either sign
MAGNITUDES = st.floats(min_value=5e-324, max_value=1e308)


@given(MAGNITUDES, MAGNITUDES, st.booleans(), st.booleans(), st.floats(0.0, 1.0),
       st.sampled_from([0.2, 1.0, 3.0]))
@example(5e-324, 5e-324, True, False, 0.5, 1.0)
@example(1e308, 1e308, True, False, 0.3, 3.0)
def test_invert_returns_a_status_on_any_bracket(a, b, neg_a, neg_b, t, power):
    glo, ghi = sorted([-a if neg_a else a, -b if neg_b else b])
    assume(glo < ghi)

    def g(x):  # increasing from glo to ghi on [0, 1], without overflow
        w = x ** power
        return glo * (1.0 - w) + ghi * w

    for y in (glo * (1.0 - t) + ghi * t, glo, ghi, 0.0):
        x, status = solve(g, y, 0.0, 1.0)
        assert status in (STATUS_OK, STATUS_RANGE, STATUS_BUDGET, STATUS_NONFINITE)
        assert status != STATUS_OK or 0.0 <= x <= 1.0


# --- generalized quasi-arithmetic combination --------------------------------


def test_gqam_weighted_pair_closed_form():
    val, status = kernels.gqam(program("x", "2*x"), [1.0, 4.0])
    assert status == STATUS_OK
    assert val == pytest.approx(3.0, abs=1e-9)  # (x1 + 2 x2) / 3


def test_gqam_flags_domain_violation():
    val, status = kernels.gqam(program("log(x)", "x"), [-1.0, 2.0])
    assert status == STATUS_NONFINITE
    assert math.isnan(val)


# --- fused Gauss iteration ----------------------------------------------------


def run_cyclic(sources, x0, gap_tol=1e-10, max_iter=500, domain=Interval(0.1, 5.0)):
    used, status, iterates, gaps, _, _ = kernels.cyclic_gauss(
        program(*sources, domain=domain), [float(v) for v in x0], gap_tol, max_iter)
    assert len(iterates) == len(gaps) == used + 1
    return used, status, iterates, gaps


def test_cyclic_gauss_conserves_weighted_sum():
    used, status, iterates, gaps = run_cyclic(["x", "2*x"], [0.0, 3.0])
    assert status == STATUS_OK
    final = iterates[used]
    assert gaps[used] <= 1e-10
    # (x + 2y)/3 and its rotation preserve x+y, so the limit is 1.5
    assert 0.5 * (final[0] + final[1]) == pytest.approx(1.5, abs=1e-9)


def test_cyclic_gauss_gaps_strictly_fall():
    used, status, iterates, gaps = run_cyclic(["x", "x^3"], [0.2, 4.8], max_iter=2000)
    assert status == STATUS_OK
    assert all(gaps[i + 1] < gaps[i] for i in range(used))


def test_cyclic_gauss_budget_status():
    used, status, iterates, gaps = run_cyclic(["x", "x^3"], [0.2, 4.8], max_iter=0)
    assert (used, status) == (0, STATUS_BUDGET)
    assert gaps[0] == pytest.approx(4.6)
    np.testing.assert_array_equal(iterates[0], [0.2, 4.8])


@pytest.mark.parametrize("sources,x0,interval", [
    (["x", "x^3"], [0.2, 4.8], (0.1, 5.0)),
    (["x", "x^2", "x^3"], [0.3, 2.0, 4.5], (0.1, 5.0)),
    (["x^1.1", "x^1.2"], [1.5e6, 9.5e6], (1e6, 1e7)),
])
def test_fused_orbit_is_the_generic_orbit_bit_for_bit(sources, x0, interval):
    # the generic orbit steps through the mapping's components, each one gqam_eval
    dom = Interval(*interval)
    system = GeneratorSystem([Generator.from_expression(s, dom) for s in sources])
    mapping = cyclic_mapping(GeneralizedQuasiArithmeticMean(system))
    fused = kernels.cyclic_gauss(system.program(), x0, 1e-10, 2000)
    generic = kernels.orbit(lambda x, mn, mx: (list(mapping.apply(x)), STATUS_OK),
                            x0, 1e-10, 2000)
    assert fused[1] == STATUS_OK and fused[5] in ("gap", "stall", "extrapolated")
    # (used, status, rows, gaps, estimate, stop): every row and gap, the
    # estimate and the stop equal
    assert fused == generic
    assert len(fused[2]) == len(fused[3]) == fused[0] + 1


def test_an_orbit_whose_gap_stalls_within_twice_the_floor_has_converged():
    # the identity mapping never shrinks a gap: 6 ulp at 1.0 is above the
    # 4-ulp floor and within twice it, 9 ulp is beyond
    def identity(x, mn, mx):
        return list(x), STATUS_OK

    eps = sys.float_info.epsilon
    used, status, rows, gaps, estimate, stop = kernels.orbit(
        identity, [1.0, 1.0 + 6 * eps], 0.0, 50)
    assert (used, status, gaps, estimate, stop) == (
        1, STATUS_OK, [6 * eps, 6 * eps], None, "stall")
    out = kernels.orbit(identity, [1.0, 1.0 + 9 * eps], 0.0, 50)
    assert (out[:2], out[5]) == ((50, STATUS_BUDGET), None)
    out = kernels.orbit(identity, [1.0, 1.0 + 4 * eps], 0.0, 50)  # the floor
    assert (out[:2], out[5]) == ((0, STATUS_OK), "gap")
    # below 0 the floor is GAP_FLOOR times the larger magnitude, mn's:
    # at -2 a gap of 8 eps meets it, though mx is 8 eps nearer to 0
    out = kernels.orbit(identity, [-1.0 - 6 * eps, -1.0], 0.0, 50)
    assert (out[:2], out[5]) == ((1, STATUS_OK), "stall")
    out = kernels.orbit(identity, [-2.0, -2.0 + 8 * eps], 0.0, 50)
    assert (out[:2], out[5]) == ((0, STATUS_OK), "gap")


def replayed_orbit(n, modes, spread, count=80):
    """The orbit of a step that replays rows of n coordinates: the mean
    of row k is 1 + sum a r^k over ``modes`` (a, r) and the row spreads
    around it by (d q^k)(-1, 1) or (d q^k)(-1, 0, 1), for spread (d, q)."""
    d, q = spread
    rows = []
    for k in range(count):
        m = 1.0 + sum(a * r**k for a, r in modes)
        s = d * q**k
        rows.append([m - s, m + s] if n == 2 else [m - s, m, m + s])
    replay = iter(rows[1:])
    return kernels.orbit(lambda x, mn, mx: (next(replay), STATUS_OK), rows[0], 1e-9, count - 1)


@pytest.mark.parametrize("n,modes", [
    (2, [(0.01, 0.25)]),
    (3, [(0.01, 0.5), (-0.02, 0.3), (0.005, 0.2)]),
])
def test_shanks_estimate_annihilates_the_means_geometric_modes(n, modes):
    # e_K, K = n(n-1)/2, of 2K+1 means is exact on K modes: the estimates
    # of the iterates 2K, 2K+1 and 2K+2 agree, and the third ends the orbit
    used, status, rows, gaps, estimate, stop = replayed_orbit(n, modes, (0.5, 0.7))
    assert (used, status, stop) == (n * (n - 1) + 2, STATUS_OK, "extrapolated")
    assert estimate == pytest.approx(1.0, abs=1e-15)
    assert gaps[-1] > 1e-3


def test_a_pair_stops_on_e3_of_its_three_leading_modes():
    # at n = 2 the mean's error is a sum of the powers lambda^p, p >= 2, of
    # the one non-unit eigenvalue: e_1 leaves lambda^3 and lambda^4 in
    # place, while e_3 of 7 means removes all three, so the estimates of the
    # iterates 6, 7 and 8 agree and the third ends the orbit
    lam = 0.5
    used, status, rows, gaps, estimate, stop = replayed_orbit(
        2, [(0.01, lam**2), (-0.02, lam**3), (0.005, lam**4)], (0.5, 0.7))
    assert (used, status, stop) == (2 * kernels.SHANKS_MODES + 2, STATUS_OK, "extrapolated")
    assert estimate == pytest.approx(1.0, abs=1e-15)


def test_a_pair_with_even_modes_alone_stops_on_e1():
    # affine-related members, such as x^3 and 2*x^3, leave only the even
    # powers of lambda in the mean, where e_3's table is near singular: e_1
    # ends the orbit at step 7, as it did before e_3 was tested, and before
    # e_3's estimates can agree twice
    lam = -1 / 3
    used, status, rows, gaps, estimate, stop = replayed_orbit(
        2, [(0.1, lam**2), (1e-5, lam**4)], (0.5, 0.8))
    assert (used, status, stop) == (7, STATUS_OK, "extrapolated")
    assert used < 2 * kernels.SHANKS_MODES + 2
    assert estimate == pytest.approx(1.0, abs=1e-15)


def test_a_shanks_estimate_outside_the_bracket_does_not_stop_the_orbit():
    # the mean tends to 1 far slower than the rows close around it, so the
    # exact estimate 1 soon leaves every bracket; the gap stop ends the orbit
    used, status, rows, gaps, estimate, stop = replayed_orbit(2, [(1.0, 0.9)], (0.01, 0.5))
    assert (status, estimate, stop) == (STATUS_OK, None, "gap")
    assert gaps[-1] <= 1e-9 < gaps[-2]


def test_an_orbit_whose_gap_grew_over_the_window_never_extrapolates():
    # exact geometric means give estimates that agree, but a spread that
    # grows by 1.05 a step makes rho > 1 and the agreement bound negative
    used, status, rows, gaps, estimate, stop = replayed_orbit(2, [(0.01, 0.25)], (1e-3, 1.05))
    assert (used, status, estimate, stop) == (79, STATUS_BUDGET, None, None)
    assert gaps[-1] > gaps[0]


def test_a_nan_estimate_never_stops_the_orbit():
    # means that rise by exactly 2^-10 a step: the epsilon table divides
    # by a zero difference and every estimate is NaN, so only the budget
    # ends an orbit whose gap 2^-3 never closes
    rows = [[1.0 + k / 1024 - 0.0625, 1.0 + k / 1024 + 0.0625] for k in range(60)]
    replay = iter(rows[1:])
    used, status, _, gaps, estimate, stop = kernels.orbit(
        lambda x, mn, mx: (next(replay), STATUS_OK), rows[0], 1e-9, 59)
    assert (used, status, estimate, stop) == (59, STATUS_BUDGET, None, None)
    assert set(gaps) == {0.125}


def test_an_orbit_whose_coordinates_sum_past_the_largest_float_has_a_mean():
    # fsum of 1e308 and 1.5e308 overflows: the orbit's mean is the fsum
    # of the coordinates over n there, and fsum(x)/n everywhere else
    step = program("x/4", "x/4", domain=Interval(1e300, 1.7e308))
    used, status, rows, _, _, stop = kernels.cyclic_gauss(step, [1e308, 1.5e308], 1e-10, 100)
    assert (used, status, rows[-1], stop) == (1, STATUS_OK, [1.25e308, 1.25e308], "gap")


# --- per-step arithmetic by comparison -------------------------------------------
# ``invert`` and ``orbit`` compare floats where a builtin min/max/abs
# call would cost more than the arithmetic it serves.  Each function
# below copies one rewritten expression of kernels.py; each test holds
# it equal to the builtin formula it replaced.

TINY = 5e-324
BIG = sys.float_info.max
# -0.0 and 0.0 compare equal, so the sort keeps both, in this order
SIGNED = sorted([-0.0, 0.0, *(v for m in (TINY, 2.2e-308, 1e-6, 0.5, 1.0 - 2**-53, 1.0, 3.0,
                                          1e300, BIG) for v in (m, -m))])
NONNEGATIVE = [-0.0, 0.0, TINY, 2.2e-308, 1e-12, 0.5, 1.0, 3.0, 1e300, BIG]


def scale_by_comparison(y, glo, ghi):
    big = ghi if ghi >= -glo else -glo
    if big > 1.0:
        big = 1.0
    return kernels.INVERT_TOL * (y if y > big else -y if -y > big else big)


def floor_by_comparison(mn, mx):
    return kernels.GAP_FLOOR * (mx if mx >= -mn else -mn)


def mean_moved_by_comparison(m, mean, floor):
    return m - mean > floor or mean - m > floor


def agrees_by_comparison(e, estimate, ratio, root, agree, floor):
    d = e - estimate
    if d < 0.0:
        d = -d
    bound = floor if floor > agree else agree
    return d <= bound and d <= (1.0 - ratio ** root) * bound


def test_the_solve_scale_is_the_builtin_formula_bit_for_bit():
    # every bracket glo < y < ghi of signed zeros, subnormals, values
    # below and above 1 and up to the largest float, straddling 0 or not
    count = 0
    for i, glo in enumerate(SIGNED):
        for j in range(i + 1, len(SIGNED)):
            ghi = SIGNED[j]
            for y in SIGNED[i + 1:j]:
                if not glo < y < ghi:
                    continue
                want = kernels.INVERT_TOL * max(abs(y), min(1.0, max(abs(glo), abs(ghi))))
                got = scale_by_comparison(y, glo, ghi)
                assert struct.pack("<d", got) == struct.pack("<d", want), (glo, y, ghi)
                count += 1
    assert count == 1122


@pytest.mark.parametrize("lo,hi,y", [
    (-1.5, 1.5, 0.0),     # min(1, ...) clamps the bracket's values
    (-0.5, 0.5, 0.0),     # values below 1 set the scale
    (-0.75, 0.25, -0.25),  # -glo sets it, the bracket straddling 0
    (2.0, 4.0, 3.0),      # |y| sets it
    (-4.0, -2.0, -3.0),   # and -y
])
def test_the_solve_accepts_exactly_the_builtin_scale(lo, hi, y):
    # g is the identity off y, where the first secant step lands; there it
    # is off by r, a step of y's float grid: accepted at the last step
    # within the scale, not one step beyond
    scale = kernels.INVERT_TOL * max(abs(y), min(1.0, max(abs(lo), abs(hi))))
    step = math.ulp(y) if y else 0.0
    near = math.floor(scale / step) * step if step else scale
    far = near + step if step else math.nextafter(scale, math.inf)
    for r, accepted in ((near, True), (-near, True), (far, False), (-far, False)):
        def g(x):
            return x + r if x == y else x

        assert (y + r) - y == r
        assert (solve(g, y, lo, hi, lo, hi) == (y, STATUS_OK)) == accepted, r


def test_the_gap_floor_and_gap_test_are_the_builtin_formulas():
    # the floor's value is the builtin one; only a zero floor can differ,
    # in its sign, which no comparison reads
    for mn in SIGNED:
        for mx in SIGNED:
            if not mn <= mx:
                continue
            floor = floor_by_comparison(mn, mx)
            want = kernels.GAP_FLOOR * max(abs(mn), abs(mx))
            assert struct.pack("<d", floor) == struct.pack("<d", want) or floor == want == 0.0
    for gap in [*NONNEGATIVE, math.inf, math.nan]:
        for tol in NONNEGATIVE:
            for floor in NONNEGATIVE:
                assert (gap > tol and gap > floor) == (gap > max(tol, floor)), (gap, tol, floor)


def test_the_mean_move_test_is_the_builtin_formula():
    # m - mean may overflow to infinity; a NaN first mean never moves
    for m in SIGNED:
        for mean in [*SIGNED, math.nan]:
            for floor in NONNEGATIVE:
                want = abs(m - mean) > floor
                assert mean_moved_by_comparison(m, mean, floor) == want, (m, mean, floor)


def test_the_lazy_shanks_test_is_the_builtin_formula():
    # the rate is computed only where the rate-free bound passes: rho >= 0
    # makes (1 - rho) * bound <= bound; ratios above 1 make it negative
    ratios = [0.0, TINY, 1e-8, 0.5, 0.9, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.05, 1e10]
    differences = [-1e-3, -1e-12, -TINY, -0.0, 0.0, TINY, 1e-14, 1e-12, 1e-3, math.nan]
    bounds = [0.0, TINY, 1e-14, 1e-12, 1e-3]
    for root in (1.0, 0.5, 1 / 6):
        for ratio in ratios:
            for d in differences:
                for estimate in (1.0, math.nan):
                    e = estimate + d
                    for agree in bounds:
                        for floor in bounds:
                            want = abs(e - estimate) <= (
                                1.0 - ratio ** root) * max(agree, floor)
                            got = agrees_by_comparison(e, estimate, ratio, root, agree, floor)
                            assert got == want, (ratio, d, estimate, agree, floor)


# --- orbits pinned bit for bit -------------------------------------------------
# (iterations, stop, repr of the limit) of fused orbits from fixed starts;
# any rewrite of the hot path that moves a bit fails here.
# The log, exp and non-integer power cases assume the libm the pins were
# taken with (glibc on x86-64).
ORBIT_PINS = [
    (("x", "x^3"), (0.1, 5.0), [
        ((0.2, 4.8), (132, "extrapolated", "3.7802244929603535"),
         (610, "gap", "3.780224492936175")),
        ((1.0, 2.0), (19, "extrapolated", "1.634365293013471"),
         (25, "extrapolated", "1.6343652930134578")),
        ((4.9, 0.15), (97, "extrapolated", "3.8595345390104803"),
         (637, "gap", "3.859534538985834")),
        ((0.5, 3.7), (57, "extrapolated", "2.9076056538344486"),
         (130, "extrapolated", "2.907605653831725")),
    ]),
    (("x", "x^2", "x^3"), (0.1, 5.0), [
        ((0.3, 2.0, 4.5), (23, "extrapolated", "3.125614542917136"),
         (37, "extrapolated", "3.125614542916029")),
        ((4.8, 0.2, 1.1), (24, "extrapolated", "3.2320413939711674"),
         (39, "extrapolated", "3.2320413939702433")),
        ((1.0, 1.5, 2.0), (12, "extrapolated", "1.58179721532469"),
         (39, "gap", "1.58179721532421")),
        ((2.5, 0.4, 3.3), (18, "extrapolated", "2.526703824508814"),
         (67, "gap", "2.526703824506906")),
    ]),
    (("x", "2*x"), (0.0, 10.0), [
        ((0.0, 3.0), (20, "gap", "1.5"), (27, "gap", "1.5")),
        ((1.0, 7.0), (21, "gap", "3.999999999999999"), (27, "gap", "3.9999999999999982")),
        ((9.5, 0.5), (21, "gap", "5.0"), (28, "gap", "5.0")),
        ((2.0, 2.5), (19, "gap", "2.25"), (25, "gap", "2.25")),
    ]),
    (("log(x)", "exp(x)"), (0.1, 3.0), [
        ((0.2, 2.8), (37, "extrapolated", "2.0569277513582773"),
         (95, "extrapolated", "2.0569277513560302")),
        ((1.0, 1.5), (9, "extrapolated", "1.2706549547381727"),
         (12, "extrapolated", "1.2706549547381596")),
        ((2.9, 0.3), (45, "extrapolated", "2.187148688734514"),
         (106, "extrapolated", "2.1871486887315923")),
        ((0.5, 2.0), (13, "extrapolated", "1.426410684354498"),
         (23, "extrapolated", "1.4264106843544273")),
    ]),
    (("x^3", "2*x^3"), (1e-4, 5e-3), [
        ((2e-4, 4.8e-3), (8, "extrapolated", "0.003809854385995207"),
         (9, "extrapolated", "0.003809854385995206")),
        ((1e-3, 3e-3), (8, "extrapolated", "0.0024101422641751367"),
         (9, "extrapolated", "0.002410142264175137")),
        ((4.5e-3, 1.5e-4), (8, "extrapolated", "0.0035716964608574764"),
         (9, "extrapolated", "0.0035716964608574755")),
    ]),
    (("x^3", "2*x^3"), (1e6, 5e7), [
        ((2e6, 4.8e7), (9, "extrapolated", "38098543.859952085"),
         (9, "extrapolated", "38098543.859952085")),
        ((1e7, 3e7), (9, "extrapolated", "24101422.641751368"),
         (9, "extrapolated", "24101422.641751368")),
        ((4.5e7, 1.5e6), (13, "extrapolated", "35716964.60857045"),
         (13, "extrapolated", "35716964.60857045")),
    ]),
    (("x^1.1", "x^1.2"), (1e6, 1e7), [
        ((1.5e6, 9.5e6), (90, "gap", "5787675.381952491"), (90, "gap", "5787675.381952491")),
        ((6077982.829103238, 6077982.829103232), (1, "stall", "6077982.829103235"),
         (1, "stall", "6077982.829103235")),
    ]),
]


@pytest.mark.parametrize("sources,interval,pins", ORBIT_PINS,
                         ids=[f"{','.join(s)}@{i[0]:g}" for s, i, _ in ORBIT_PINS])
def test_fused_orbits_are_pinned_bit_for_bit(sources, interval, pins):
    # the gap tolerances 1e-9 and 1e-12 under a budget of 4000 steps; the
    # limit is the estimate, or the midpoint of the last iterate
    step = program(*sources, domain=Interval(*interval))
    for x0, *want in pins:
        got = []
        for gap_tol in (1e-9, 1e-12):
            used, status, rows, _, estimate, stop = kernels.cyclic_gauss(
                step, list(x0), gap_tol, 4000)
            assert status == STATUS_OK
            limit = estimate if estimate is not None else 0.5 * (min(rows[-1]) + max(rows[-1]))
            got.append((used, stop, repr(limit)))
        assert got == want, (sources, x0)


@pytest.mark.parametrize("sources,steps,calls", [
    (("x", "x^3"), 1179, 8437),
    (("x", "x^2", "x^3"), 415, 4742),
])
def test_the_benchmark_systems_take_the_pinned_sum_body_calls(sources, steps, calls):
    # the Gauss steps and sum-body calls of 20 seeded orbits of each
    # system the benchmark's slow orbits run, at gap tolerance 1e-9: 3.58
    # and 3.81 calls a solve, so a solve that takes more steps fails here
    # and not only in a timing.  The lowered step inlines the sum, so each
    # step of its orbit is solved again by kernels.invert on a counting
    # sum body, which must give the next row bit for bit
    step = program(*sources)
    bodies = [body(s) for s in sources]
    total = compile_expr(sum_tree([parse(s) for s in sources]))
    count = 0

    def counted(x):
        nonlocal count
        count += 1
        return total(x)

    rng = np.random.default_rng(7)
    used = 0
    for _ in range(20):
        x0 = rng.uniform(0.1, 5.0, len(sources)).tolist()
        out = kernels.cyclic_gauss(step, x0, 1e-9, 4000)
        assert out[1] == STATUS_OK
        used += out[0]
        rows = out[2]
        for x, image in zip(rows, rows[1:]):
            assert step_bits(reference_step(bodies, counted, x)) == step_bits((image, STATUS_OK))
    assert (used, count) == (steps, calls)


# the first n of these members on (0.1, 5): from n = 4 on the mean has
# more than SHANKS_MODES modes, and the capped table still ends the orbit
WIDE_MEMBERS = ("x", "x^3", "x^2", "sqrt(x)", "log(x)", "exp(x)", "x^4", "2*x", "x^1.5", "x^5",
                "3*x^0.5", "x^6")
WIDE_PINS = {
    4: [((1.29, 0.67, 2.02, 0.91), (13, "extrapolated", "1.3630749890451501")),
        ((0.51, 2.05, 4.42, 3.88), (33, "extrapolated", "3.3114755427525555")),
        ((3.72, 1.22, 2.67, 1.47), (22, "extrapolated", "2.6082632566467683"))],
    6: [((3.85, 3.98, 2.43, 1.4, 0.2, 3.25), (21, "extrapolated", "3.0587161080327916")),
        ((2.36, 3.69, 1.92, 3.74, 1.45, 3.89), (20, "extrapolated", "3.152357386294938")),
        ((3.56, 2.1, 2.68, 3.34, 1.09, 2.75), (16, "extrapolated", "2.8062989130919247"))],
    8: [((1.24, 4.63, 0.78, 3.44, 0.59, 1.34, 4.8, 1.16),
         (37, "extrapolated", "3.3862169462964835")),
        ((3.15, 2.31, 2.28, 2.48, 1.08, 4.02, 0.61, 1.28),
         (24, "extrapolated", "2.6833609776062186")),
        ((0.29, 1.43, 2.08, 4.35, 1.94, 0.72, 1.39, 4.76),
         (27, "extrapolated", "3.1908477601249152"))],
    12: [((2.43, 3.29, 3.33, 0.87, 0.25, 1.96, 1.49, 4.01, 3.45, 3.03, 2.82, 3.31),
          (77, "extrapolated", "3.1073099570154192")),
         ((0.88, 2.27, 0.96, 4.46, 0.48, 4.05, 0.55, 3.43, 1.78, 2.1, 4.16, 0.29),
          (93, "extrapolated", "3.380935379275071")),
         ((0.49, 4.5, 2.59, 0.63, 4.84, 4.65, 0.73, 2.19, 0.83, 1.67, 3.12, 0.97),
          (96, "extrapolated", "3.6919563671608104"))],
}


@pytest.mark.parametrize("n", sorted(WIDE_PINS))
def test_wide_orbits_stop_on_the_capped_shanks_estimate(oracle, n):
    # (iterations, stop, repr of the limit) at gap tolerance 1e-10, each
    # limit within 1e-11 of the 40-digit quasi-arithmetic mean of the sum;
    # the oracle lacks six of the members, so they are written out here
    import mpmath

    sources = WIDE_MEMBERS[:n]
    extra = {"sqrt(x)": mpmath.sqrt, "x^4": lambda x: x**4, "x^1.5": lambda x: x**1.5,
             "x^5": lambda x: x**5, "3*x^0.5": lambda x: 3 * mpmath.sqrt(x),
             "x^6": lambda x: x**6}
    reference = oracle.Oracle([])
    reference.fs = [oracle.GENERATORS.get(s) or extra[s] for s in sources]
    step = program(*sources)
    for x0, want in WIDE_PINS[n]:
        used, status, _, _, estimate, stop = kernels.cyclic_gauss(step, list(x0), 1e-10, 4000)
        assert status == STATUS_OK
        assert (used, stop, repr(estimate)) == want, x0
        assert oracle.rel_err(estimate, reference.qam(x0)) <= 1e-11, x0


def test_a_capped_table_never_extrapolates_a_linear_system():
    # x, 2*x, ..., 6*x keeps the arithmetic mean fixed: its 15 modes are
    # more than the table removes, but a mean that does not move has none
    # to remove, so every orbit ends on its gap after the table could fill
    step = program("x", *(f"{k}*x" for k in range(2, 7)))
    rng = np.random.default_rng(6)
    for _ in range(10):
        used, status, _, _, estimate, stop = kernels.cyclic_gauss(
            step, rng.uniform(0.2, 4.8, 6).tolist(), 1e-10, 4000)
        assert (status, stop, estimate) == (STATUS_OK, "gap", None)
        assert used > 2 * kernels.SHANKS_MODES + 2


def mixed_system():
    # a callable member beside an expression member
    dom = Interval(0.1, 5.0)
    return GeneratorSystem([Generator.from_callable(lambda x: x**3 + x, dom, label="cube"),
                            Generator.from_expression("x^2", dom)])


def on_family(family, sources, domain=Interval(0.1, 5.0)):
    """A system of expression members, inlined into the Gauss step, or
    of the same members' lowered bodies as callables, which the step
    calls."""
    if family == "lowered":
        members = [Generator(domain, expr=parse(s), label=s, validate=False) for s in sources]
    else:
        members = [Generator.from_callable(body(s), domain, label=s, validate=False)
                   for s in sources]
    return GeneratorSystem(members)


def one_step(step, x):
    used, status, iterates, _, _, _ = kernels.cyclic_gauss(step, list(x), 0.0, 1)
    return used, status, iterates[-1]


def assert_step_is_the_rotated_means(system, x):
    # the rotated means from the member bodies, the step's and gqam's
    x = [float(v) for v in x]
    step = system.program()
    total = system.sum_generator().body()
    bodies = [g.body() for g in system.generators]
    rotations = [x[-i:] + x[:-i] for i in range(len(x))]
    means = [reference_gqam(bodies, total, r) for r in rotations]
    assert [st for _, st in means] == [STATUS_OK] * len(x)
    used, status, image = one_step(step, x)
    assert (used, status) == (1, STATUS_BUDGET)
    assert bits([image]) == bits([[val for val, _ in means]]), x
    got = [kernels.gqam(step, r) for r in rotations]
    assert bits(got) == bits(means), x


@pytest.mark.parametrize("family", ["lowered", "callable"])
@pytest.mark.parametrize("sources,interval", [
    (["x", "x^3"], (0.1, 5.0)),
    (["x", "x^2", "x^3"], (0.1, 5.0)),
    (["log(x)", "x"], (0.1, 10.0)),
    (["exp(x)", "x"], (0.0, 3.0)),
    (["x^1.1", "x^1.2"], (1e6, 1e7)),
    (["x", "x^2", "x^3", "log(x)"], (0.1, 5.0)),
    (["x", "x^1.5", "x^2", "x^2.5", "x^3", "exp(x)"], (0.1, 5.0)),
    (["x", "2*x", "x^2", "x^3", "log(x)", "sqrt(x)", "exp(x)", "x^1.5"], (0.1, 5.0)),
])
def test_one_fused_step_is_the_rotated_means_bit_for_bit(family, sources, interval):
    # the step and gqam read their targets and the shared F(min), F(max)
    # off one evaluation of every member at every coordinate; the
    # reference evaluates them from the member bodies and the sum body
    system = on_family(family, sources, Interval(*interval))
    rng = np.random.default_rng(11)
    for _ in range(25):
        assert_step_is_the_rotated_means(system, rng.uniform(*interval, len(sources)))


def test_one_fused_step_of_a_mixed_system_is_the_rotated_means():
    rng = np.random.default_rng(12)
    for _ in range(25):
        assert_step_is_the_rotated_means(mixed_system(), rng.uniform(0.1, 5.0, 2))


@pytest.mark.parametrize("family", ["lowered", "callable"])
@pytest.mark.parametrize("sources,x", [
    (["log(x)", "x"], [2.0, -1.0]),  # a member is not finite
    (["x*1e308", "x*1e308"], [0.5, 1.5]),  # members are, their sum at max x is not
])
def test_a_fused_step_fails_where_a_member_or_the_sum_is_not_finite(family, sources, x):
    step = on_family(family, sources).program()
    used, status, _ = one_step(step, x)
    assert (used, status) == (0, STATUS_NONFINITE)
    val, status = kernels.gqam(step, x)
    assert status == STATUS_NONFINITE and math.isnan(val)


def test_a_fused_step_fails_where_the_sum_is_not_finite_inside_the_bracket():
    # the first member is finite at both coordinates of (1, 2) but NaN on
    # (1.4, 1.6), where the first secant point of the target 3 of
    # F = 2x lands: the inlined sum fails inside the solve's loop
    dom = Interval(0.1, 5.0)
    hole = Generator.from_callable(lambda x: math.nan if 1.4 < x < 1.6 else x, dom,
                                   label="hole", validate=False)
    system = GeneratorSystem([hole, Generator.from_expression("x", dom)])
    step = system.program()
    x = [1.0, 2.0]
    want = reference_step([g.body() for g in system.generators],
                          system.sum_generator().body(), x)
    assert want[1] == STATUS_NONFINITE and want[0] is not None  # not before the solve
    assert step_bits(step(x, 1.0, 2.0)) == step_bits(want)
    assert one_step(step, x)[:2] == (0, STATUS_NONFINITE)
    val, status = kernels.gqam(step, x)
    assert status == STATUS_NONFINITE and math.isnan(val)
    with pytest.raises(EvalError) as exc:
        gauss_iterate(cyclic_mapping(GeneralizedQuasiArithmeticMean(system)), x)
    assert str(exc.value) == "'hole + x' is not finite inside (0.1, 5.0)"


def test_the_lowered_step_reads_the_solve_constants_at_each_call(monkeypatch):
    # x, x^3 with x^3 a callable that counts its calls, lowered before the
    # constants change: with no tolerance and 3 steps, every solve runs
    # out of steps, so a step evaluates the cube at its 2 coordinates and
    # at 3 trial points, and gives the statuses and values that
    # kernels.invert gives.  A step that wrote either constant into its
    # code would solve to 1e-12 within 200 steps and call the cube more
    # or less often, even were kernels.invert written the same way
    calls = 0

    def cube(x):
        nonlocal calls
        calls += 1
        return x**3

    dom = Interval(0.1, 5.0)
    system = GeneratorSystem([Generator.from_expression("x", dom),
                              Generator.from_callable(cube, dom, label="cube")])
    step = system.program()
    bodies = [g.body() for g in system.generators]
    total = system.sum_generator().body()
    monkeypatch.setattr(kernels, "INVERT_TOL", 0.0)
    monkeypatch.setattr(kernels, "INVERT_BUDGET", 3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(0.1, 5.0, 2).tolist()
        calls = 0
        used, status, rows, _, _, _ = kernels.cyclic_gauss(step, x, 0.0, 1)
        assert (used, status, calls) == (0, STATUS_BUDGET, 2 + 3)
        assert reference_step(bodies, total, x)[1] == status
        calls = 0
        got = kernels.gqam(step, x)
        assert calls == 2 + 3
        _, status = reference_step(bodies, total, x, 1)
        assert bits([got]) == bits([(math.nan, status)]) and status == STATUS_BUDGET
        assert step_bits(step(x, min(x), max(x))) == step_bits(reference_step(bodies, total, x))


def test_a_member_not_finite_at_another_coordinate_fails_the_mean():
    # the first member is NaN at 2.0 alone, off its validation grid: the
    # member bodies never evaluate it there at (1, 2, 3), but gqam, like
    # the fused step, evaluates every member at every coordinate
    dom = Interval(0.1, 5.0)
    hole = Generator.from_callable(lambda x: math.nan if x == 2.0 else x, dom, label="hole")
    system = GeneratorSystem([hole, Generator.from_expression("x^2", dom),
                              Generator.from_expression("x^3", dom)])
    xs = [1.0, 2.0, 3.0]
    step = system.program()
    total = system.sum_generator().body()
    assert reference_gqam([g.body() for g in system.generators], total, xs)[1] == STATUS_OK
    val, status = kernels.gqam(step, xs)
    assert status == STATUS_NONFINITE and math.isnan(val)
    assert one_step(step, xs)[:2] == (0, STATUS_NONFINITE)
    with pytest.raises(EvalError, match="not finite inside"):
        gqam_eval(system, xs)


# points from +-1e-300 to +-1e300, signed zeros, infinities and NaN
FOLD_POINTS = [sign * 10.0**e for e in range(-300, 301, 20) for sign in (1.0, -1.0)] + [
    0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, 2.5, 709.5, -709.5]


@pytest.mark.parametrize("name", [*builtin_systems(), "mixed"])
def test_sum_body_is_the_fold_of_the_member_bodies(name):
    # the step reads F at the bracket's ends off its member values and
    # inside it from the inlined sum tree, which agree:
    # F(x) == 0.0 + f1(x) + ... + fn(x), NaN exactly where that is not finite
    system = mixed_system() if name == "mixed" else builtin_systems()[name]
    members = [g.body() for g in system.generators]
    total = system.sum_generator().body()
    for x in FOLD_POINTS:
        fold = 0.0
        for b in members:
            fold += b(x)
        if math.isfinite(fold):
            assert total(x) == fold, (name, x)
        else:
            assert math.isnan(total(x)), (name, x)


# --- warm-up -------------------------------------------------------------------


def test_warm_up_runs_every_kernel_and_the_shanks_stop(monkeypatch):
    # its orbit takes the Shanks stop, so first use is paid in warm_up
    calls = []
    active = kernels.ACTIVE

    def record(name):
        def kernel(*args):
            calls.append((name, getattr(active, name)(*args)))
            return calls[-1][1]
        return kernel

    monkeypatch.setattr(kernels, "ACTIVE", active._replace(
        **{name: record(name) for name in active._fields}))
    warm_up()
    assert [name for name, _ in calls] == list(active._fields)
    used, status, _, _, estimate, stop = calls[-1][1]
    assert (status, stop) == (STATUS_OK, "extrapolated") and estimate is not None
