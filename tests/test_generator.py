"""Generators: evaluation, bracketed inversion, monotonicity, affine fits.

The inversion oracle is scipy's brentq run against the same body — an
entirely separate bracketing implementation, so agreement is meaningful.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from meanlab import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    EvalError,
    Generator,
    GeneratorSystem,
    Interval,
    MeanlabError,
    MonotonicityError,
    RangeError,
    affine_fit,
    builtin_generator,
    builtin_generators,
    builtin_system,
    builtin_systems,
    check_monotone,
    sum_generators,
)
from meanlab import kernels
from meanlab.dsl import Binary, Constant, X, parse
from meanlab.dsl.compiler import compile_solve

I010 = Interval(0.0, 10.0)


# --- evaluation ----------------------------------------------------------


def test_expression_generator_evaluates():
    g = Generator.from_expression("x^3", I010)
    assert g(2.0) == pytest.approx(8.0)
    assert g.expr == parse("x^3") and not hasattr(g, "fn")


def test_domain_error_outside_interval():
    g = Generator.from_expression("x", I010)
    with pytest.raises(DomainError):
        g(11.0)
    with pytest.raises(DomainError):
        g(-0.5)


def test_open_endpoints_are_outside():
    g = Generator.from_expression("log(x)", I010)
    with pytest.raises(DomainError):
        g(0.0)
    # a point just inside is evaluated where it is, clear of the singularity
    assert math.isfinite(g(1e-15 + I010.inset))


def test_a_point_in_the_inset_band_is_evaluated_where_it_is():
    # nothing moves a caller's point onto the inset margin, 1e-9 of the
    # width from each end
    g = Generator.from_expression("log(x)", I010)
    for x in (1e-300, 5e-324, 1e-9, 10.0 - 1e-12):
        assert g(x) == math.log(x) == g.eval_inside(x)
    inv = Generator.from_expression("-1/x", I010, label="-1/x")
    with pytest.raises(EvalError, match="not finite at x = 1e-320"):
        inv(1e-320)


def test_eval_grid_matches_scalar_eval():
    g = Generator.from_expression("exp(x) - 1", Interval(0.0, 3.0))
    xs = g.domain.grid(32)
    vs = g.eval_grid(xs)
    assert [type(v) for v in vs] == [float] * 32
    for x, v in zip(xs, vs):
        assert v == g(x)


@pytest.mark.parametrize("bounds", [(0.1, 5.0), (1e-7, 5e-6), (1e6, 5e7), (-3.0, 3.0)])
def test_grid_is_linspace_bit_for_bit(bounds):
    dom = Interval(*bounds)
    for n in range(2, 401):
        xs = dom.grid(n)
        assert [type(x) for x in xs] == [float] * n
        want = np.linspace(dom.lo + dom.inset, dom.hi - dom.inset, n)
        assert np.asarray(xs).tobytes() == want.tobytes(), n


def test_callable_generator():
    g = Generator.from_callable(lambda x: x + math.sin(x) * 0.1, I010, label="wavy")
    assert callable(g.expr)  # the guarded callable, a tree of one leaf
    assert g(1.0) == pytest.approx(1.0 + 0.1 * math.sin(1.0))


# --- inversion against an independent root finder ------------------------

INVERT_CASES = [
    ("x", I010),
    ("2*x", I010),
    ("x^2", Interval(0.1, 5.0)),
    ("x^3", Interval(0.1, 5.0)),
    ("log(x)", Interval(0.1, 10.0)),
    ("exp(x)", Interval(0.0, 10.0)),
    ("x^3 + x", Interval(0.1, 5.0)),
    ("exp(x) + x", Interval(0.0, 3.0)),
]


@pytest.mark.parametrize("source,domain", INVERT_CASES)
def test_invert_agrees_with_brentq(source, domain):
    g = Generator.from_expression(source, domain)
    lo, hi = domain.grid(2)
    for x in domain.grid(17):
        y = g(float(x))
        got = g.invert_on(y, lo, hi)
        want = brentq(lambda t: g(t) - y, lo, hi, xtol=1e-13, rtol=1e-15)
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("source,domain", INVERT_CASES)
def test_invert_round_trip_on_grid(source, domain):
    g = Generator.from_expression(source, domain)
    lo, hi = domain.grid(2)
    for x in domain.grid(64):
        x = float(x)
        assert g.invert_on(g(x), lo, hi) == pytest.approx(x, abs=1e-8 * max(1.0, abs(x)))


def test_invert_out_of_range():
    g = Generator.from_expression("x", I010)
    lo, hi = I010.grid(2)
    with pytest.raises(RangeError):
        g.invert_on(11.0, lo, hi)
    with pytest.raises(RangeError):
        g.invert_on(-1.0, lo, hi)


def test_a_nan_target_is_out_of_range_after_the_endpoints():
    # the solve reads only the two endpoint values: no value brackets NaN
    calls = []
    g = Generator.from_callable(lambda x: calls.append(x) or x**3, Interval(0.1, 5.0),
                                label="cube", validate=False)
    with pytest.raises(RangeError, match="y = nan is outside the value range of 'cube'"):
        g.invert_on(math.nan, *g.domain.grid(2))
    assert len(calls) == 2
    tree = Generator.from_expression("x^3", Interval(0.1, 5.0))
    with pytest.raises(RangeError, match="y = nan is outside"):
        tree.invert_on(math.nan, *tree.domain.grid(2))


def test_from_expression_refuses_a_callable():
    # a callable in a tree must be guarded, which only from_callable does
    with pytest.raises(TypeError, match="from_callable"):
        Generator.from_expression(lambda x: x, I010)


def test_expr_refuses_an_unguarded_callable_bare_or_as_a_leaf():
    # refused before anything evaluates it
    def raw(x):
        raise AssertionError("evaluated")

    dom = Interval(0.1, 5.0)
    for expr in (raw, Binary("+", X, raw), Binary("*", Binary("+", raw, X), Constant(2.0))):
        for validate in (True, False):
            with pytest.raises(TypeError, match="from_callable"):
                Generator(dom, expr=expr, validate=validate)
    with pytest.raises(TypeError, match="from_callable"):
        # unguarded, it raised ValueError out of the monotonicity check
        Generator(dom, expr=lambda x: math.log(x - 1))
    # the same callable is taken through from_callable, guarded, also inside a tree
    g = Generator.from_callable(lambda x: math.log(x - 1), dom, validate=False)
    assert math.isnan(g.body()(0.5))
    tree = Generator(dom, expr=Binary("+", X, g.expr), validate=False)
    assert tree.body()(3.0) == 3.0 + math.log(2.0)
    assert math.isnan(tree.body()(0.5))


def test_invert_on_narrow_bracket():
    g = Generator.from_expression("x^3", Interval(0.1, 5.0))
    y = g(2.0)
    assert g.invert_on(y, 1.5, 2.5) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(RangeError):
        g.invert_on(y, 3.0, 4.0)  # bracket excludes the root


def test_a_spent_budget_names_the_constants_the_solve_ran_with(monkeypatch):
    monkeypatch.setattr(kernels, "INVERT_BUDGET", 3)
    g = Generator.from_expression("x^3 + x", Interval(0.1, 5.0))
    with pytest.raises(ConvergenceError, match="did not reach tol = 1e-12 within 3 steps"):
        g.invert_on(7.0, *g.domain.grid(2))


def _invert_outcome(g, y, lo, hi):
    try:
        return g.invert_on(y, lo, hi)
    except MeanlabError as exc:
        return type(exc), str(exc)


# bodies whose Python and expression forms round alike, so both solvers must
# agree bit for bit, with the exits each one reaches below: values past
# either end of the range exit RANGE; with INVERT_TOL at 0 the cubic's
# solves mostly collapse the bracket without an exact root and exit BUDGET,
# while the line's secant steps land on exact roots; sqrt(x - 1) is not
# finite at the lower end of (0.1, 5)
CALLABLE_BODIES = [
    ("2*x + 1", lambda x: 2 * x + 1, {float, RangeError}),
    ("x*x*x + x", lambda x: x * x * x + x, {float, RangeError, ConvergenceError}),
    ("sqrt(x - 1)", lambda x: math.sqrt(x - 1), {EvalError}),
]


def test_callable_inversion_matches_tape(monkeypatch):
    dom = Interval(0.1, 5.0)
    lo, hi = dom.grid(2)
    for source, body, exits in CALLABLE_BODIES:
        tree = Generator(dom, expr=parse(source), label="g", validate=False)
        fn = Generator.from_callable(body, dom, label="g", validate=False)
        seen = set()
        for tol in (1e-12, 0.0):
            monkeypatch.setattr(kernels, "INVERT_TOL", tol)
            for y in np.linspace(-1.0, tree.body()(hi) + 1.0, 97):
                got = _invert_outcome(fn, float(y), lo, hi)
                assert got == _invert_outcome(tree, float(y), lo, hi)
                seen.add(got[0] if isinstance(got, tuple) else type(got))
        assert seen == exits, source


# --- monotonicity --------------------------------------------------------


def test_check_monotone_passes_increasing():
    report = check_monotone(Generator.from_expression("x^3 + x", I010))
    assert report.passed
    assert report.witness is None


def test_check_monotone_decreasing_witness():
    # from_expression validates eagerly, so build unchecked and inspect
    bad = Generator.from_callable(lambda x: -x, I010, label="neg", validate=False)
    report = check_monotone(bad)
    assert not report.passed
    assert report.reason == "not increasing"
    x, y = report.witness
    assert x < y and -x >= -y


def test_check_monotone_nonfinite_witness():
    bad = Generator.from_callable(
        lambda x: math.log(x - 5.0), I010, label="shifted-log", validate=False
    )
    report = check_monotone(bad)
    assert not report.passed
    assert report.reason == "non-finite"
    a, b = report.witness
    assert a == b  # the offending point, doubled


def test_callable_value_that_is_not_real_is_nan_but_a_bad_body_raises():
    # the square root of a negative float is complex: not finite, not an error
    with pytest.raises(MonotonicityError) as exc:
        Generator.from_callable(lambda x: x**0.5, Interval(-1.0, 1.0))
    assert exc.value.report.reason == "non-finite"
    # a body that cannot be called on x is a programming error
    with pytest.raises(TypeError):
        Generator.from_callable(lambda: 1.0, I010)


def test_from_expression_rejects_decreasing():
    with pytest.raises(MonotonicityError) as exc:
        Generator.from_expression("0 - x", I010)
    report = exc.value.report
    assert report is not None and not report.passed


def test_a_tree_that_fails_the_grid_check_fails_on_every_construction():
    # the verdict is kept per tree and interval; the message is each build's
    for label in ("first", "second"):
        with pytest.raises(MonotonicityError, match=f"'{label}' is not strictly") as exc:
            Generator.from_expression("1 - x^2", I010, label=label)
        assert exc.value.report.reason == "not increasing"


def test_flat_body_rejected():
    with pytest.raises(MonotonicityError):
        Generator.from_expression("3 + 0*x", I010)


# --- affine images and fits ----------------------------------------------


def test_affine_image_evaluates():
    g = Generator.from_expression("x^2", Interval(0.1, 5.0))
    h = g.affine(2.0, 3.0)
    for x in (0.5, 1.0, 4.0):
        assert h(x) == pytest.approx(2.0 * g(x) + 3.0, rel=1e-15)


def test_affine_requires_positive_slope():
    g = Generator.from_expression("x", I010)
    with pytest.raises(ValueError):
        g.affine(-1.0, 0.0)
    with pytest.raises(ValueError):
        g.affine(0.0, 5.0)


def test_affine_needs_finite_coefficients():
    # a*g + b with a or b not finite would be NaN everywhere
    dom = Interval(0.1, 5.0)
    for g in (Generator.from_expression("x^3", dom), Generator.from_callable(lambda x: x**3, dom)):
        for a, b in ((math.inf, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan),
                     (math.nan, 0.0)):
            with pytest.raises(ValueError, match="finite"):
                g.affine(a, b)
        assert g.affine(2.0, -1.0)(2.0) == 15.0


def test_affine_fit_recovers_coefficients():
    f = Generator.from_expression("x^3", Interval(0.1, 5.0))
    g = f.affine(2.5, -1.0)
    a, b, residual = affine_fit(f, g)
    assert a == pytest.approx(2.5, rel=1e-12)
    assert b == pytest.approx(-1.0, abs=1e-10)
    assert residual < 1e-10


def test_affine_fit_exp_vs_line_residual():
    f = builtin_generator("x", I010)
    g = builtin_generator("exp(x)", I010)
    a, b, residual = affine_fit(f, g)
    # frozen from a second least-squares solver, numpy.linalg.lstsq's SVD
    # on the same 64-point grid, which the closed form must match:
    # exp is nowhere near affine in x on (0,10)
    assert residual == pytest.approx(14121.499243805294, rel=1e-9)
    assert residual > 0.1


def test_affine_fit_is_exact_on_an_exactly_affine_pair():
    # the centered sums cancel exactly here; a matrix solve was 1-2 ulp off
    f = Generator.from_expression("x", I010)
    assert affine_fit(f, Generator.from_expression("3*x+1", I010)) == (3.0, 1.0, 0.0)


def test_affine_fit_degenerate():
    const = Generator.from_callable(lambda x: 1.0, I010, label="const", validate=False)
    g = builtin_generator("x", I010)
    with pytest.raises(DegenerateError):
        affine_fit(const, g)


def test_affine_fit_domain_mismatch():
    f = Generator.from_expression("x", I010)
    g = Generator.from_expression("x", Interval(0.0, 5.0))
    with pytest.raises(ValueError):
        affine_fit(f, g)


# --- registries and systems ----------------------------------------------


def test_builtin_generator_names():
    gens = builtin_generators()
    assert set(gens) == {"x", "2*x", "x^2", "x^3", "log(x)", "exp(x)"}
    for g in gens.values():
        assert check_monotone(g).passed


def test_builtin_system_names():
    systems = builtin_systems()
    assert set(systems) == {"x,2*x", "x,x^3", "log(x),x", "exp(x),x", "x,x^2,x^3"}
    assert systems["x,x^2,x^3"].n == 3
    for s in systems.values():
        assert all(g.expr is not None for g in s.generators)


def test_builtin_rebind_domain():
    g = builtin_generator("x^3", Interval(1.0, 2.0))
    assert g.domain == Interval(1.0, 2.0)
    with pytest.raises(KeyError):
        builtin_generator("x^4")
    with pytest.raises(KeyError):
        builtin_system("x,x^4")


def test_system_requires_two_generators():
    g = Generator.from_expression("x", I010)
    with pytest.raises(ValueError):
        GeneratorSystem([g])


def test_system_requires_shared_domain():
    a = Generator.from_expression("x", I010)
    b = Generator.from_expression("x", Interval(0.0, 5.0))
    with pytest.raises(ValueError):
        GeneratorSystem([a, b])


def test_sum_generator_is_pointwise_sum():
    s = builtin_system("x,x^3")
    total = s.sum_generator()
    for x in s.domain.grid(16):
        x = float(x)
        assert total(x) == pytest.approx(s.generators[0](x) + s.generators[1](x), rel=1e-15)


def test_sum_generators_callable_path():
    dom = Interval(0.1, 5.0)
    parts = [
        Generator.from_callable(lambda x: x, dom, label="id"),
        Generator.from_callable(lambda x: x**3, dom, label="cube"),
    ]
    total = sum_generators(parts)
    assert total(2.0) == pytest.approx(10.0)


def test_sums_and_affine_images_of_callables_are_lowered_trees():
    # the members' guarded callables are leaves of one lowered function,
    # each bound once in its namespace, however often the tree holds it
    dom = Interval(0.1, 5.0)
    cube = Generator.from_callable(lambda x: x**3, dom, label="cube")
    line = Generator.from_expression("x", dom)
    for g in (sum_generators([cube, line, cube]), cube.affine(2.5, 1.0),
              GeneratorSystem([cube, cube]).sum_generator()):
        body = g.body()
        assert body.__code__.co_filename == "<meanlab body>"
        assert [v is cube.expr for v in body.__globals__.values()].count(True) == 1
    # a callable's own body is its guarded callable, with no frame around it
    assert cube.body() is cube.expr


def test_systems_hand_the_body_family_each_members_own_body():
    dom = Interval(0.1, 5.0)
    cube = Generator.from_callable(lambda x: x**3, dom, label="cube")
    line = Generator.from_expression("x", dom)
    square = Generator.from_expression("x^2", dom)
    trees = [line, square]
    value = {cube: lambda x: x**3, line: lambda x: x, square: lambda x: x * x}
    for members in ([cube, line], [cube, cube], trees):
        system = GeneratorSystem(members)
        step = system.program()
        total = system.sum_generator().body()
        for g in members:
            for x in (0.5, 2.5):
                assert g.body()(x) == value[g](x)
        for x in ([0.5, 2.5], [2.5, 0.5]):  # member j takes coordinate j - i of rotation i
            f0, f1 = value[members[0]], value[members[1]]
            targets = [f0(x[0]) + f1(x[1]), f0(x[1]) + f1(x[0])]
            lo, hi = min(x), max(x)
            assert [total(v) for v in x] == [f0(v) + f1(v) for v in x]
            xs, status = kernels.invert(compile_solve(total), targets, lo, hi, total(lo), total(hi))
            assert step(x, lo, hi) == (xs, status) and status == kernels.STATUS_OK
    # the lowered body is the tree's value, NaN where it is not finite
    assert line.body()(2.5) == line.eval_inside(2.5) == 2.5
    assert math.isnan(Generator.from_expression("log(x)", dom).body()(-1.0))
    # a callable is guarded once, when its body is made
    for fails in (math.log, lambda x: 1 / (x - x), lambda x: 10**400 * x,
                  lambda x: math.inf, lambda x: complex(x, 1), lambda x: "x"):
        assert math.isnan(Generator.from_callable(fails, dom, validate=False).body()(-1.0))
    wrong_arity = Generator.from_callable(lambda x, y: x, dom, validate=False)
    with pytest.raises(TypeError):
        wrong_arity.body()(1.0)
    system = GeneratorSystem([wrong_arity, line])
    with pytest.raises(TypeError):
        kernels.gqam(system.program(), [1.0, 2.0])
    with pytest.raises(TypeError):
        system.program()([1.0, 2.0], 1.0, 2.0)


def test_system_affine():
    s = builtin_system("x,2*x")
    t = s.affine(3.0, [1.0, -2.0])
    for x in (0.5, 4.0):
        assert t.generators[0](x) == pytest.approx(3.0 * s.generators[0](x) + 1.0)
        assert t.generators[1](x) == pytest.approx(3.0 * s.generators[1](x) - 2.0)


def test_system_affine_needs_one_offset_per_member():
    with pytest.raises(ValueError, match="need one offset per generator"):
        builtin_system("x,2*x").affine(3.0, [1.0])


def test_sum_generators_needs_members_on_one_interval():
    with pytest.raises(ValueError, match="needs at least one generator"):
        sum_generators([])
    x = Generator(I010, expr=X, validate=False)
    with pytest.raises(ValueError, match="must share one interval"):
        sum_generators([x, Generator(Interval(0.0, 5.0), expr=X, validate=False)])


def test_affine_fit_refuses_a_generator_not_finite_on_its_grid():
    # log(x - 1) is NaN on the grid points at or below 1
    f = Generator(I010, expr=parse("log(x - 1)"), validate=False)
    with pytest.raises(EvalError, match="non-finite value on the sample grid"):
        affine_fit(f, Generator(I010, expr=X, validate=False))


# --- properties -----------------------------------------------------------


@given(st.sampled_from(sorted(builtin_generators())), st.floats(0.0, 1.0))
def test_round_trip_property(name, u):
    g = builtin_generator(name)
    lo, hi = g.domain.grid(2)
    x = min(max(g.domain.lo + g.domain.width * u, lo), hi)
    assert g.invert_on(g(x), lo, hi) == pytest.approx(x, abs=1e-8 * max(1.0, abs(x)))


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from(sorted(builtin_generators())),
)
def test_affine_fit_property(a, b, name):
    f = builtin_generator(name)
    ga, gb, residual = affine_fit(f, f.affine(a, b))
    assert ga == pytest.approx(a, rel=1e-8, abs=1e-10)
    assert gb == pytest.approx(b, abs=1e-8 * max(1.0, abs(b)))
    assert residual <= 1e-8 * max(1.0, abs(a), abs(b))


def test_unreachable_target_exhausts_budget():
    # a jump discontinuity leaves the residual bounded away from zero, so
    # the solve must stop on its step budget rather than loop forever
    step = Generator.from_callable(
        lambda x: x if x < 5.0 else x + 1.0, I010, label="step"
    )
    with pytest.raises(ConvergenceError):
        step.invert_on(5.5, *I010.grid(2))
