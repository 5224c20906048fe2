"""Gauss iteration, the composed limit mean, and the invariance residual.

The classical AGM loop coded inline below is the oracle for the
(arithmetic, geometric) pair — it shares nothing with gauss_iterate but
the arithmetic itself.
"""

import math

import numpy as np
import pytest

from meanlab import (
    ConvergenceError,
    FunctionMean,
    GaussComposition,
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    MeanTypeMapping,
    RangeError,
    arithmetic_mean,
    builtin_system,
    composition_closed_form_check,
    cyclic_mapping,
    cyclic_symmetry_check,
    gauss_composition,
    gauss_iterate,
    geometric_mean,
    invariance_residual,
    midpoint,
)
from meanlab.cyclic import fixed_arity
from meanlab.dsl import compile_expr, parse

POS = Interval(0.1, 10.0)


def agm_oracle(a: float, b: float) -> float:
    """Textbook arithmetic-geometric iteration at full double precision."""
    for _ in range(64):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-15 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def agm_mapping(domain=POS) -> MeanTypeMapping:
    return MeanTypeMapping(
        [fixed_arity(arithmetic_mean(domain), 2), fixed_arity(geometric_mean(domain), 2)]
    )


# --- classical AGM ---------------------------------------------------------


def test_agm_limit_matches_oracle():
    limit, trace = gauss_iterate(agm_mapping(), (1.0, 2.0), gap_tol=1e-12)
    assert trace.converged
    assert limit == pytest.approx(agm_oracle(1.0, 2.0), abs=1e-8)
    # frozen from a 50-digit run of the same loop
    assert limit == pytest.approx(1.4567910310469069, abs=1e-10)


def test_agm_gaps_strictly_decrease():
    _, trace = gauss_iterate(agm_mapping(), (1.0, 9.5), gap_tol=1e-12)
    gaps = trace.gaps
    assert gaps[0] == pytest.approx(8.5)
    for before, after in zip(gaps, gaps[1:]):
        if before > 1e-13:
            assert after < before


def test_constant_vector_is_a_fixed_point():
    mapping = agm_mapping()
    for k in range(20):
        c = 0.2 + 0.45 * k
        limit, trace = gauss_iterate(mapping, (c, c))
        assert limit == c
        assert trace.converged
        assert trace.iterations_used == 0


def test_constant_vector_fused_path():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3"))
    mapping = cyclic_mapping(mean)
    for k in range(20):
        c = 0.2 + 0.2 * k
        limit, trace = gauss_iterate(mapping, (c, c))
        assert limit == c
        assert trace.iterations_used == 0


# --- cyclic mappings --------------------------------------------------------


def conservation_oracle(x: float, y: float, steps: int = 80) -> float:
    # each step of the (x+2y)/3 pair preserves x+y, so the limit is the
    # arithmetic mean; the loop below checks that claim independently
    for _ in range(steps):
        x, y = (x + 2.0 * y) / 3.0, (y + 2.0 * x) / 3.0
    return 0.5 * (x + y)


def _weighted_pair_limit(start):
    dom = Interval(-1.0, 10.0)
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x", dom))
    limit, trace = gauss_iterate(cyclic_mapping(mean), start)
    assert trace.converged
    assert limit == pytest.approx(conservation_oracle(*start), abs=1e-9)
    return limit


def test_weighted_pair_converges_to_arithmetic_mean():
    assert _weighted_pair_limit((0.0, 3.0)) == pytest.approx(1.5, abs=1e-9)


def test_weighted_pair_converges_to_a_zero_limit():
    # a stop scaled by the current iterate would never be met here
    assert _weighted_pair_limit((-0.5, 0.5)) == pytest.approx(0.0, abs=1e-9)


def test_identical_components_converge_in_one_step():
    mapping = MeanTypeMapping([fixed_arity(arithmetic_mean(POS), 2)] * 2)
    limit, trace = gauss_iterate(mapping, (1.0, 3.0))
    assert limit == pytest.approx(2.0, abs=1e-12)
    assert trace.iterations_used <= 1


@pytest.mark.parametrize("gap_tol", [math.nan, math.inf, -1.0])
def test_gap_tol_must_be_finite_and_nonnegative(gap_tol):
    mapping = cyclic_mapping(GeneralizedQuasiArithmeticMean(builtin_system("x,x^3")))
    with pytest.raises(ValueError, match="gap_tol"):
        gauss_iterate(mapping, (0.2, 4.8), gap_tol=gap_tol)


def test_budget_exhaustion_carries_trace():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3"))
    mapping = cyclic_mapping(mean)
    with pytest.raises(ConvergenceError) as exc:
        gauss_iterate(mapping, (0.2, 4.8), max_iter=1)
    trace = exc.value.trace
    assert trace is not None
    assert not trace.converged
    assert trace.iterations_used == 1
    assert len(trace.iterates) == 2  # start plus the one step taken
    assert trace.gaps[1] < trace.gaps[0]


def test_budget_exhaustion_names_the_scaled_stop():
    dom = Interval(1e-7, 5e-6)
    mean = GeneralizedQuasiArithmeticMean(
        GeneratorSystem([Generator.from_expression(g, dom) for g in ("x^3", "2*x^3")])
    )
    with pytest.raises(ConvergenceError, match="still above 4e-16 after 12 iterations"):
        gauss_iterate(cyclic_mapping(mean), (2e-7, 4e-6), 1e-10, 12)


def test_trace_records_orbit():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    mapping = cyclic_mapping(mean)
    limit, trace = gauss_iterate(mapping, (1.0, 4.0))
    assert trace.iterates[0] == (1.0, 4.0)
    assert trace.gaps[0] == 3.0
    assert max(trace.last) - min(trace.last) <= trace.gap_tol
    assert limit == midpoint(trace.last)
    assert len(trace.iterates) == trace.iterations_used + 1


# --- the composition as a mean -----------------------------------------------


def test_composition_of_agm_pair():
    comp = gauss_composition(agm_mapping(), gap_tol=1e-12)
    assert comp((1.0, 2.0)) == pytest.approx(agm_oracle(1.0, 2.0), abs=1e-8)
    assert comp.arity == 2
    trace = comp.trace((1.0, 2.0))
    assert trace.converged


def test_composition_of_identical_arithmetic_components():
    mapping = MeanTypeMapping([fixed_arity(arithmetic_mean(POS), 2)] * 2)
    comp = gauss_composition(mapping)
    assert comp((1.0, 3.0)) == pytest.approx(2.0, abs=1e-12)


def test_composition_validation_rejects_non_mean():
    bogus = FunctionMean(lambda pts: max(pts) + 1.0, POS, arity=2, label="over")
    mapping = MeanTypeMapping([bogus, fixed_arity(arithmetic_mean(POS), 2)])
    with pytest.raises(ValueError):
        gauss_composition(mapping)
    # opting out of validation defers the damage; construction succeeds
    assert isinstance(
        gauss_composition(mapping, validate=False), GaussComposition
    )


def test_composition_closed_form_for_weighted_pair():
    # conservation makes the composed limit the arithmetic mean exactly
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    comp = gauss_composition(cyclic_mapping(mean))
    assert comp((1.0, 4.0)) == pytest.approx(2.5, abs=1e-9)


# --- invariance residual -------------------------------------------------------


def test_arithmetic_mean_is_invariant_for_weighted_pair():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    mapping = cyclic_mapping(mean)
    am = fixed_arity(arithmetic_mean(mean.domain), 2)
    # the components sum to x + y in exact float arithmetic at these points
    assert invariance_residual(am, mapping, (1.0, 4.0)) == 0.0


def test_geometric_mean_is_not_invariant_for_weighted_pair():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    mapping = cyclic_mapping(mean)
    gm = fixed_arity(geometric_mean(mean.domain), 2)
    # frozen closed form: |sqrt(3*2) - sqrt(1*4)| = sqrt(6) - 2
    assert invariance_residual(gm, mapping, (1.0, 4.0)) == pytest.approx(
        0.4494897427831779, abs=1e-12
    )


def test_arithmetic_mean_is_not_agm_invariant():
    am = fixed_arity(arithmetic_mean(POS), 2)
    # M(1,4) = (2.5, 2), so K(M) - K = 2.25 - 2.5 exactly
    assert invariance_residual(am, agm_mapping(), (1.0, 4.0)) == pytest.approx(0.25)


@pytest.mark.parametrize("name", ["x,2*x", "x,x^3", "log(x),x"])
def test_composition_solves_invariance_equation(name):
    system = builtin_system(name)
    mean = GeneralizedQuasiArithmeticMean(system)
    mapping = cyclic_mapping(mean)
    # the cubic pair contracts slowly from wide starts, hence the budget
    comp = gauss_composition(mapping, gap_tol=1e-10, max_iterations=2000)
    rng = np.random.default_rng(21)
    for _ in range(50):
        pts = [float(v) for v in system.domain.sample(rng, system.n)]
        assert invariance_residual(comp, mapping, pts) <= 1e-9


# --- closed-form and symmetry reports ------------------------------------------


@pytest.mark.parametrize("name", ["x,2*x", "x,x^3", "x,x^2,x^3"])
def test_closed_form_check_passes(name):
    report = composition_closed_form_check(builtin_system(name), samples=60, tol=1e-7)
    assert report.passed
    assert report.max_residual <= 1e-7
    assert len(report.rows) == 60
    assert report.worst_point in {row[0] for row in report.rows}


def _assert_cubic_m1_is_accurate(lo, hi):
    from mpmath import cbrt, mp, mpf

    mp.dps = 40
    dom = Interval(lo, hi)
    system = GeneratorSystem([Generator.from_expression(g, dom) for g in ("x^3", "2*x^3")])
    report = composition_closed_form_check(system, samples=20, seed=3)
    for (x1, x2), iterated, closed, _ in report.rows:
        truth = cbrt((mpf(x1) ** 3 + mpf(x2) ** 3) / 2)
        assert abs(iterated / truth - 1) <= 1e-9
        assert abs(closed / truth - 1) <= 1e-9


def test_closed_form_check_is_accurate_on_values_below_one():
    _assert_cubic_m1_is_accurate(1e-4, 5e-3)


def test_closed_form_check_is_accurate_on_values_near_1e_minus_6():
    # needs a Gauss stop relative below 1: an absolute 1e-9 gap is 1e-3
    # of values near 1e-6
    _assert_cubic_m1_is_accurate(1e-7, 5e-6)


def test_closed_form_check_is_seed_deterministic():
    a = composition_closed_form_check(builtin_system("x,2*x"), samples=20, seed=5)
    b = composition_closed_form_check(builtin_system("x,2*x"), samples=20, seed=5)
    assert a.rows == b.rows
    c = composition_closed_form_check(builtin_system("x,2*x"), samples=20, seed=6)
    assert c.rows != a.rows


def test_symmetry_of_composed_limit_pair():
    system = builtin_system("x,2*x")
    mapping = cyclic_mapping(GeneralizedQuasiArithmeticMean(system))
    fwd = gauss_iterate(mapping, (1.0, 4.0))[0]
    rev = gauss_iterate(mapping, (4.0, 1.0))[0]
    assert fwd == pytest.approx(2.5, abs=1e-9)
    assert rev == pytest.approx(fwd, abs=1e-7)


def test_symmetry_check_triple():
    report = cyclic_symmetry_check(builtin_system("x,x^2,x^3"), samples=30)
    assert report.passed
    assert report.max_deviation <= report.tol


def test_symmetry_check_needs_fixed_arity():
    from meanlab import Generator, QuasiArithmeticMean

    variadic = QuasiArithmeticMean(Generator.from_expression("x", POS))
    with pytest.raises(ValueError):
        cyclic_symmetry_check(variadic)


# --- gap contraction across the built-in suite ----------------------------------


@pytest.mark.parametrize("name", sorted(["x,2*x", "x,x^3", "log(x),x", "exp(x),x", "x,x^2,x^3"]))
def test_gaps_contract_for_builtin_systems(name):
    system = builtin_system(name)
    mean = GeneralizedQuasiArithmeticMean(system)
    mapping = cyclic_mapping(mean)
    rng = np.random.default_rng(17)
    for _ in range(5):
        pts = [float(v) for v in system.domain.sample(rng, system.n)]
        _, trace = gauss_iterate(mapping, pts)
        assert trace.converged
        for before, after in zip(trace.gaps, trace.gaps[1:]):
            if before > 1e-13:
                assert after < before


# --- one driver: the generic orbit against the fused kernel ------------------


def _steep_system():
    # x^20000 + x^20000 is too steep for the inner solve's step budget
    dom = Interval(1.0, 1.03)
    return GeneratorSystem([Generator.from_expression("x^20000", dom)] * 2)


def _decreasing_system():
    # an unvalidated decreasing member: the inner solve loses its bracket
    dom = Interval(0.1, 5.0)
    return GeneratorSystem([
        Generator(dom, tape=compile_expr(parse(t)), label=t, validate=False)
        for t in ("x", "0 - 2*x")
    ])


def _large_system():
    # the orbit closes to a few ulp of 1e6..1e7, above the default gap_tol
    dom = Interval(1e6, 1e7)
    return GeneratorSystem([Generator.from_expression(t, dom) for t in ("x^1.1", "x^1.2")])


def _callable_system():
    # Python bodies that round like the tapes x^3 and 2*x^3
    dom = Interval(0.1, 5.0)
    return GeneratorSystem([
        Generator.from_callable(lambda x: x ** 3, dom, label="x^3"),
        Generator.from_callable(lambda x: 2 * x ** 3, dom, label="2*x^3"),
    ])


# systems run from 20 random starts, by name
RANDOM_STARTS = {
    name: (lambda name=name: builtin_system(name))
    for name in ["x,2*x", "x,x^3", "log(x),x", "exp(x),x", "x,x^2,x^3"]
}
RANDOM_STARTS["callable x^3,2*x^3"] = _callable_system

# systems run from one fixed start: (builder, start, what 3 steps raise)
FIXED_STARTS = {
    "x^20000,x^20000": (_steep_system, [1.0191088506114259, 1.008093601426729],
                        ConvergenceError),
    "x,0 - 2*x": (_decreasing_system, [1.0, 2.0], RangeError),
    "x^1.1,x^1.2": (_large_system, [2e6, 9e6], ConvergenceError),
}
# those whose first Gauss step fails inside a component
INNER_FAILURES = ("x^20000,x^20000", "x,0 - 2*x")


@pytest.mark.parametrize("name", sorted(RANDOM_STARTS) + sorted(FIXED_STARTS))
def test_generic_driver_matches_fused(name):
    if name in FIXED_STARTS:
        build, pts, error = FIXED_STARTS[name]
        system = build()
        starts = [pts]
    else:
        system, error = RANDOM_STARTS[name](), ConvergenceError
        rng = np.random.default_rng(23)
        starts = [[float(v) for v in system.domain.sample(rng, system.n)] for _ in range(20)]
        pts = starts[-1]
    mean = GeneralizedQuasiArithmeticMean(system)
    fused = cyclic_mapping(mean)
    # same components, no system: gauss_iterate takes the generic orbit
    generic = MeanTypeMapping(fused.components, label=fused.label)
    assert fused.system is not None and generic.system is None
    if name not in INNER_FAILURES:
        for start in starts:
            assert gauss_iterate(generic, start, max_iter=2000) == gauss_iterate(fused, start, max_iter=2000)
    # the other orbits exhaust 3 steps, the failing ones stop in step 1
    raised = []
    for mapping in (generic, fused):
        with pytest.raises(error) as exc:
            gauss_iterate(mapping, pts, max_iter=3)
        raised.append((type(exc.value), str(exc.value), getattr(exc.value, "trace", None)))
    assert raised[0] == raised[1]
    _, text, trace = raised[0]
    if name in INNER_FAILURES:
        assert trace is None
        assert "nan" not in text
    else:
        assert trace.iterations_used == 3


def test_gap_floor_does_not_stop_a_stalled_orbit():
    # (max, min) swaps the ends forever: the gap never shrinks, so the
    # floor at float resolution must not end the orbit early
    dom = Interval(0.0, 10.0)
    mapping = MeanTypeMapping([FunctionMean(max, dom, arity=2), FunctionMean(min, dom, arity=2)])
    with pytest.raises(ConvergenceError) as exc:
        gauss_iterate(mapping, [1.0, 9.0], max_iter=40)
    trace = exc.value.trace
    assert trace.iterations_used == 40
    assert set(trace.gaps) == {8.0}
