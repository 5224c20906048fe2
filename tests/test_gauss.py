"""Gauss iteration, the composed limit mean, and the invariance residual.

The classical AGM loop coded inline below is the oracle for the
(arithmetic, geometric) pair — it shares nothing with gauss_iterate but
the arithmetic itself.
"""

import logging
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
    PermutedMean,
    RangeError,
    arithmetic_mean,
    builtin_system,
    composition_closed_form_check,
    cyclic_mapping,
    cyclic_symmetry_check,
    gauss_iterate,
    geometric_mean,
    gqam_eval,
    invariance_residual,
    kernels,
    midpoint,
)
from meanlab.cyclic import fixed_arity, rotation_base
from meanlab.dsl import parse
from meanlab.gauss import DEFAULT_GAP_TOL, DEFAULT_MAX_ITER

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


def test_an_orbit_from_the_inset_band_starts_where_it_is_given():
    # the start vector is never moved onto the inset margin (1e-8 on
    # (0, 10)): the limit lies between the given points, fused or not
    for start in ((1e-12, 3e-12), (1e-300, 3e-300), (10.0 - 3e-12, 10.0 - 1e-12)):
        limit, trace = gauss_iterate(cyclic_mapping(
            GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))), start)
        assert trace.iterates[0] == start
        assert min(start) <= limit <= max(start)
        assert limit == pytest.approx(sum(start) / 2, rel=1e-9)
    agm = agm_mapping(Interval(0.0, 10.0))
    limit, trace = gauss_iterate(agm, (1e-12, 4e-12))
    assert trace.iterates[0] == (1e-12, 4e-12)
    assert 1e-12 <= limit <= 4e-12
    # x, x^3 below 1e-8 is nearly the identity: the orbit crawls
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3", Interval(0.0, 10.0)))
    with pytest.raises(ConvergenceError) as exc:
        gauss_iterate(cyclic_mapping(mean), (1e-9, 5e-9))
    assert all(1e-9 <= v <= 5e-9 for row in exc.value.trace.iterates for v in row)


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
    # two steps make three iterates, the 2K+1 means (K = 1) of one Shanks
    # estimate and no second one to agree with, so only the gap can stop
    dom = Interval(1e-7, 5e-6)
    mean = GeneralizedQuasiArithmeticMean(
        GeneratorSystem([Generator.from_expression(g, dom) for g in ("x^3", "2*x^3")])
    )
    with pytest.raises(ConvergenceError, match="still above 4e-16 after 2 iterations"):
        gauss_iterate(cyclic_mapping(mean), (2e-7, 4e-6), 1e-10, 2)


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
    comp = GaussComposition(agm_mapping(), gap_tol=1e-12)
    assert comp((1.0, 2.0)) == pytest.approx(agm_oracle(1.0, 2.0), abs=1e-8)
    assert comp.arity == 2
    trace = gauss_iterate(comp.mapping, (1.0, 2.0), comp.gap_tol, comp.max_iterations)[1]
    assert trace.converged


def test_composition_of_identical_arithmetic_components():
    mapping = MeanTypeMapping([fixed_arity(arithmetic_mean(POS), 2)] * 2)
    comp = GaussComposition(mapping)
    assert comp((1.0, 3.0)) == pytest.approx(2.0, abs=1e-12)


def test_composition_validation_rejects_non_mean():
    bogus = FunctionMean(lambda pts: max(pts) + 1.0, POS, arity=2, label="over")
    mapping = MeanTypeMapping([bogus, fixed_arity(arithmetic_mean(POS), 2)])
    with pytest.raises(ValueError, match=r"'over' .* outside"):
        GaussComposition(mapping)
    # min is within every bound but on one, not strictly inside
    low = FunctionMean(min, POS, arity=2, label="min")
    with pytest.raises(ValueError, match=r"'min' .* sits on a bound of"):
        GaussComposition(MeanTypeMapping([low, fixed_arity(arithmetic_mean(POS), 2)]))


def test_composition_closed_form_for_weighted_pair():
    # conservation makes the composed limit the arithmetic mean exactly
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    comp = GaussComposition(cyclic_mapping(mean))
    assert comp((1.0, 4.0)) == pytest.approx(2.5, abs=1e-9)


def test_a_composition_checks_its_points_once(checked_points):
    # gauss_iterate's check of the start vector is K's only one
    comp = GaussComposition(cyclic_mapping(GeneralizedQuasiArithmeticMean(builtin_system("x,x^3"))))
    checked_points.clear()
    comp([0.5, 4.0])
    assert checked_points == [[0.5, 4.0]]


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
    comp = GaussComposition(mapping, gap_tol=1e-10, max_iterations=2000)
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


def test_configured_logging_gets_records_from_the_calling_functions(caplog):
    # a library caller who configured logging sees the package's records,
    # each naming the function that logged it
    caplog.set_level(logging.DEBUG, logger="meanlab.gauss")
    report = composition_closed_form_check(builtin_system("x,2*x"), samples=2)
    records = [r for r in caplog.records if r.name == "meanlab.gauss"]
    assert [(r.levelname, r.funcName) for r in records] == [
        ("DEBUG", "gauss_iterate"), ("DEBUG", "gauss_iterate"),
        ("INFO", "composition_closed_form_check"),
    ]
    assert records[-1].getMessage() == (
        f"closed-form check [x,2.0*x]: 2 samples, max residual {report.max_residual:.3e} (pass)")
    assert records[-1].pathname.endswith("gauss.py")


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
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    report = cyclic_symmetry_check(mean, samples=30)
    assert report.passed
    assert report.max_deviation <= report.tol


def test_symmetry_check_needs_fixed_arity():
    from meanlab import Generator, QuasiArithmeticMean

    variadic = QuasiArithmeticMean(Generator.from_expression("x", POS))
    with pytest.raises(ValueError, match="a variadic mean needs an explicit arity"):
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
        Generator(dom, expr=parse(t), label=t, validate=False)
        for t in ("x", "0 - 2*x")
    ])


def _large_system():
    # the orbit closes to a few ulp of 1e6..1e7, above the default gap_tol
    dom = Interval(1e6, 1e7)
    return GeneratorSystem([Generator.from_expression(t, dom) for t in ("x^1.1", "x^1.2")])


def _callable_system():
    # Python bodies that round like the expressions x^3 and 2*x^3
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


def unrecognized(fused):
    """The same rotations, each behind a shift-0 pin that
    ``rotation_base`` does not recognize: gauss_iterate takes the
    generic orbit over them."""
    generic = MeanTypeMapping([PermutedMean(c, 0, fused.arity) for c in fused.components],
                              label=fused.label)
    assert rotation_base(generic.components) is None
    return generic


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
    generic = unrecognized(fused)
    assert rotation_base(fused.components) is mean
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


def test_rotations_of_two_means_run_the_generic_orbit(monkeypatch):
    # G and a rotation of H, a GQAM of another system on the same interval:
    # no one mean's rotations, so no fused orbit, and the limit is the
    # orbit of the mapping's own steps
    g = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x", POS))
    h = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3", POS))
    mapping = MeanTypeMapping([g, PermutedMean(h, 1, 2)])
    fused = []
    monkeypatch.setattr(kernels, "ACTIVE", kernels.ACTIVE._replace(
        cyclic_gauss=lambda *args: fused.append(args)))
    start = [0.5, 4.0]
    limit, trace = gauss_iterate(mapping, start)
    assert fused == []
    used, status, rows, gaps, estimate, stop = kernels.orbit(
        lambda x, _mn, _mx: (kernels.STATUS_OK, list(mapping.apply(x))),
        start, DEFAULT_GAP_TOL, DEFAULT_MAX_ITER)
    assert status == kernels.STATUS_OK and trace.iterations_used == used
    assert trace.iterates == tuple(map(tuple, rows)) and trace.stop == stop
    assert limit == (midpoint(rows[-1]) if estimate is None else estimate)


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


def test_an_orbit_stalled_just_above_the_floor_has_converged():
    # x^1.1, x^1.2 near 6e6: the orbit from (9422099.1, 2319884.8) used to
    # swap these two iterates with the gap stuck at 5.59e-9, above the
    # 4-ulp floor of 5.40e-9 and far above the 1e-9 tolerance; it now ends
    # sooner on a Shanks estimate, so start where it stalled.  The mean
    # moves by an ulp at most, too little to extrapolate, so only the stall
    # rule ends the orbit; both orbit drivers apply it
    dom = Interval(1e6, 1e7)
    system = GeneratorSystem([Generator.from_expression(s, dom) for s in ("x^1.1", "x^1.2")])
    fused = cyclic_mapping(GeneralizedQuasiArithmeticMean(system))
    generic = unrecognized(fused)
    start = [6077982.829103238, 6077982.829103232]
    limit, trace = gauss_iterate(fused, start, 1e-9, 5000)
    assert gauss_iterate(generic, start, 1e-9, 5000) == (limit, trace)
    assert trace.converged and trace.stop == "stall" and trace.estimate is None
    floor = kernels.GAP_FLOOR * max(trace.last)
    assert floor < trace.gaps[-1] <= kernels.STALL_FLOOR * floor
    assert trace.gaps[-1] >= trace.gaps[-2]
    assert limit == midpoint(trace.last)


def test_a_linear_system_never_extrapolates():
    # x, 2*x maps x to the weighted means (x1 + 2 x2)/3 and (x2 + 2 x1)/3,
    # which keep the arithmetic mean: its sequence has no geometric tail,
    # so every orbit keeps the gap stop and reports the midpoint
    for interval, gap_tol in [((0.1, 5.0), 1e-9), ((-1.0, 10.0), 1e-12),
                              ((1e6, 5e7), 1e-9), ((1e-7, 5e-6), 1e-10)]:
        dom = Interval(*interval)
        system = GeneratorSystem([Generator.from_expression(s, dom) for s in ("x", "2*x")])
        mapping = cyclic_mapping(GeneralizedQuasiArithmeticMean(system))
        rng = np.random.default_rng(3)
        for _ in range(20):
            limit, trace = gauss_iterate(mapping, rng.uniform(*interval, 2), gap_tol, 2000)
            assert (trace.stop, trace.estimate) == ("gap", None)
            assert limit == midpoint(trace.last)


def test_a_slowly_contracting_orbit_stops_on_its_shanks_estimate():
    # x, x^3 contracts by about 0.9 a step; the estimate ends the orbit
    # inside the last bracket while the gap is still far above its stop
    mapping = cyclic_mapping(GeneralizedQuasiArithmeticMean(builtin_system("x,x^3")))
    limit, trace = gauss_iterate(mapping, (0.2, 4.8), 1e-10, 2000)
    assert trace.stop == "extrapolated" and limit == trace.estimate
    assert min(trace.last) <= limit <= max(trace.last)
    assert trace.gaps[-1] > 1e-6
    # the step it stopped on
    assert trace.iterations_used == 166 and len(trace.iterates) == 167


def _mixed_system():
    dom = Interval(0.1, 5.0)
    return GeneratorSystem([Generator.from_callable(lambda x: x**3 + x, dom, label="cube"),
                            Generator.from_expression("x^2", dom)])


LIBRARY_SYSTEMS = {
    "callable": _callable_system,
    "mixed": _mixed_system,
    "affine": lambda: _callable_system().affine(2.5, [1.0, -3.0]),
}
LIBRARY_POINTS = [(0.3, 4.2), (1.0, 2.0), (4.9, 0.15), (2.5, 2.5)]
# composition_closed_form_check (left, right) of 2 samples at each of the
# seeds 0-4, then gqam_eval at LIBRARY_POINTS, by system
LIBRARY_PINS = {
    "callable": ([
        (3.7991795748010038, 3.799179574801572), (2.760908430518591, 2.760908430518786),
        (2.816385305946025, 2.816385305946584), (2.7708165455400073, 2.7708165455405473),
        (3.72537604970246, 3.72537604970438), (3.701734110427139, 3.7017341104279424),
        (2.4197592065991254, 2.4197592065992053), (2.544642295402869, 2.5446422954039747),
        (3.620154002325714, 3.6201540023263976), (4.903068987880085, 4.903068987880299),
    ], [3.6692607905174732, 1.7828270804131212, 3.3975352186218393, 2.5]),
    "mixed": ([
        (3.7495503440621816, 3.7495503440616695), (2.7141529221040077, 2.7141529221047547),
        (2.7547577490420285, 2.7547577490422195), (2.7665459544751037, 2.766545954474824),
        (3.653438252343466, 3.6534382523435767), (3.639197730765551, 3.6391977307663876),
        (2.410322669994013, 2.4103226699941156), (2.4710423739325176, 2.4710423739323564),
        (3.5613359941250815, 3.5613359941256304), (4.90306635938944, 4.903066359389609),
    ], [2.2139318356400146, 1.3891935965396842, 4.592871175682313, 2.5]),
    "affine": ([
        (3.799179574801003, 3.799179574801572), (2.760908430518591, 2.760908430518786),
        (2.816385305946024, 2.8163853059465844), (2.770816545540007, 2.7708165455405473),
        (3.72537604970246, 3.7253760497043795), (3.70173411042714, 3.7017341104279424),
        (2.4197592065991254, 2.4197592065992053), (2.544642295402869, 2.5446422954039747),
        (3.620154002325713, 3.620154002326398), (4.903068987880085, 4.903068987880299),
    ], [3.6692607905174737, 1.7828270804131212, 3.3975352186218393, 2.5]),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_SYSTEMS))
def test_library_results_of_callable_systems_are_pinned_bit_for_bit(name):
    # a sum of callables and an affine image are lowered trees with the
    # callables as leaves; a rewrite of the lowering or of the hot path
    # must not move a bit
    system = LIBRARY_SYSTEMS[name]()
    rows = []
    for seed in range(5):
        report = composition_closed_form_check(system, samples=2, seed=seed)
        rows += [(left, right) for _, left, right, _ in report.rows]
    assert rows == LIBRARY_PINS[name][0]
    assert [gqam_eval(system, x) for x in LIBRARY_POINTS] == LIBRARY_PINS[name][1]
