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
    inverse_generator,
    sum_generators,
)
from meanlab.dsl import compile_expr, parse

I010 = Interval(0.0, 10.0)


# --- evaluation ----------------------------------------------------------


def test_expression_generator_evaluates():
    g = Generator.from_expression("x^3", I010)
    assert g(2.0) == pytest.approx(8.0)
    assert g.is_tape_backed


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
    # clamping keeps interior evaluation clear of the singularity
    assert math.isfinite(g(1e-15 + I010.inset))


def test_eval_grid_matches_scalar_eval():
    g = Generator.from_expression("exp(x) - 1", Interval(0.0, 3.0))
    xs = g.domain.grid(32)
    vs = g.eval_grid(xs)
    for x, v in zip(xs, vs):
        assert v == g(float(x))


def test_callable_generator():
    g = Generator.from_callable(lambda x: x + math.sin(x) * 0.1, I010, label="wavy")
    assert not g.is_tape_backed
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
    lo, hi = domain.clamp(domain.lo), domain.clamp(domain.hi)
    for x in domain.grid(17):
        y = g(float(x))
        got = g.invert(y)
        want = brentq(lambda t: g(t) - y, lo, hi, xtol=1e-13, rtol=1e-15)
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("source,domain", INVERT_CASES)
def test_invert_round_trip_on_grid(source, domain):
    g = Generator.from_expression(source, domain)
    for x in domain.grid(64):
        x = float(x)
        assert g.invert(g(x)) == pytest.approx(x, abs=1e-8 * max(1.0, abs(x)))


def test_invert_out_of_range():
    g = Generator.from_expression("x", I010)
    with pytest.raises(RangeError):
        g.invert(11.0)
    with pytest.raises(RangeError):
        g.invert(-1.0)


def test_invert_on_narrow_bracket():
    g = Generator.from_expression("x^3", Interval(0.1, 5.0))
    y = g(2.0)
    assert g.invert_on(y, 1.5, 2.5) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(RangeError):
        g.invert_on(y, 3.0, 4.0)  # bracket excludes the root


def _invert_outcome(g, y, lo, hi, tol):
    try:
        return g.invert_on(y, lo, hi, tol)
    except MeanlabError as exc:
        return type(exc), str(exc)


# bodies whose Python and tape forms round alike, so both solvers must
# agree bit for bit, with the exits each one reaches below: values past
# either end of the range exit RANGE; at tol 0 the cubic's solves mostly
# collapse the bracket without an exact root and exit BUDGET, while the
# line's secant steps land on exact roots; sqrt(x - 1) is not finite at
# the lower end of (0.1, 5)
CALLABLE_BODIES = [
    ("2*x + 1", lambda x: 2 * x + 1, {float, RangeError}),
    ("x*x*x + x", lambda x: x * x * x + x, {float, RangeError, ConvergenceError}),
    ("sqrt(x - 1)", lambda x: math.sqrt(x - 1), {EvalError}),
]


def test_callable_inversion_matches_tape():
    dom = Interval(0.1, 5.0)
    lo, hi = dom.clamp(dom.lo), dom.clamp(dom.hi)
    for source, body, exits in CALLABLE_BODIES:
        tape = Generator(dom, tape=compile_expr(parse(source)), label="g", validate=False)
        fn = Generator.from_callable(body, dom, label="g", validate=False)
        seen = set()
        for y in np.linspace(-1.0, tape._raw(hi) + 1.0, 97):
            for tol in (1e-12, 0.0):
                got = _invert_outcome(fn, float(y), lo, hi, tol)
                assert got == _invert_outcome(tape, float(y), lo, hi, tol)
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


def test_from_expression_rejects_decreasing():
    with pytest.raises(MonotonicityError):
        Generator.from_expression("0 - x", I010)


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
    # frozen from an independent least-squares run (numpy.linalg.lstsq on
    # the same 64-point grid): exp is nowhere near affine in x on (0,10)
    assert residual == pytest.approx(14121.499243805294, rel=1e-9)
    assert residual > 0.1


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


# --- inverses as generators ----------------------------------------------


def test_inverse_generator_round_trip():
    g = Generator.from_expression("exp(x)", Interval(0.0, 3.0))
    ginv = inverse_generator(g)
    for x in (0.5, 1.0, 2.5):
        assert ginv(g(x)) == pytest.approx(x, abs=1e-9)
    assert ginv.domain == g.value_interval()


def test_value_interval_brackets_outputs():
    g = Generator.from_expression("x^2", Interval(0.1, 5.0))
    rng = g.value_interval()
    for x in g.domain.grid(16):
        assert rng.contains(g(float(x)))


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
        assert s.is_tape_backed


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
        assert total(x) == pytest.approx(s[0](x) + s[1](x), rel=1e-15)


def test_sum_generators_callable_path():
    dom = Interval(0.1, 5.0)
    parts = [
        Generator.from_callable(lambda x: x, dom, label="id"),
        Generator.from_callable(lambda x: x**3, dom, label="cube"),
    ]
    total = sum_generators(parts)
    assert total(2.0) == pytest.approx(10.0)


def test_system_affine():
    s = builtin_system("x,2*x")
    t = s.affine(3.0, [1.0, -2.0])
    for x in (0.5, 4.0):
        assert t[0](x) == pytest.approx(3.0 * s[0](x) + 1.0)
        assert t[1](x) == pytest.approx(3.0 * s[1](x) - 2.0)


# --- properties -----------------------------------------------------------


@given(st.sampled_from(sorted(builtin_generators())), st.floats(0.0, 1.0))
def test_round_trip_property(name, u):
    g = builtin_generator(name)
    x = g.domain.lo + (g.domain.hi - g.domain.lo) * u
    x = g.domain.clamp(x)
    assert g.invert(g(x)) == pytest.approx(x, abs=1e-8 * max(1.0, abs(x)))


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
        step.invert(5.5)
