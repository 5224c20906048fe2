"""Functional-equation verifiers: bisymmetry, its generalized form, the
associativity check, and the characterization pipeline.

Orientation pinning: the two-sided checks are exercised with asymmetric
matrices against closed forms computed right here, so a row/column
transposition bug cannot slip through as a pass.
"""

from pathlib import Path

import numpy as np
import pytest

from meanlab import (
    ConvergenceError,
    DomainError,
    FunctionMean,
    GaussComposition,
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    QuasiArithmeticMean,
    arithmetic_mean,
    associativity_check,
    bisymmetry_check,
    builtin_system,
    characterize,
    cyclic_mapping,
    gbs_for_mean_check,
    generalized_bisymmetry_check,
    geometric_mean,
    lehmer_mean,
    minmax_blend,
    qam_eval,
    random_matrix,
    validate_matrix,
)
from meanlab import bisymmetry, gauss, kernels
from meanlab.cyclic import fixed_arity

I010 = Interval(0.0, 10.0)


def lehmer2(a: float, b: float) -> float:
    return (a * a + b * b) / (a + b)


# --- matrices ---------------------------------------------------------------


def test_validate_matrix_accepts_square():
    m = validate_matrix([[1.0, 2.0], [3.0, 4.0]], I010)
    assert m == ((1.0, 2.0), (3.0, 4.0))


def test_validate_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_matrix([[1.0, 2.0], [3.0]], I010)
    with pytest.raises(ValueError):
        validate_matrix([], I010)
    with pytest.raises(ValueError, match="square 1x1"):
        validate_matrix([[1.0, 2.0]], I010)
    with pytest.raises(ValueError, match="square 3x3"):
        validate_matrix([[1.0, 2.0], [3.0, 4.0]], I010, 3)


def test_bisymmetry_check_takes_the_matrix_its_arity_fixes():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    with pytest.raises(ValueError, match="square 3x3"):
        bisymmetry_check(mean, [[1.0, 2.0], [3.0, 4.0]])


def test_validate_matrix_rejects_outside_entries():
    with pytest.raises(DomainError):
        validate_matrix([[1.0, 2.0], [3.0, 11.0]], I010)


def test_random_matrix_shape_and_domain():
    rng = np.random.default_rng(0)
    m = random_matrix(rng, I010, 3)
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    assert all(I010.contains(v) for row in m for v in row)


# --- classical bisymmetry -----------------------------------------------------


def test_arithmetic_mean_is_bisymmetric():
    report = bisymmetry_check(arithmetic_mean(I010), [[1.0, 3.0], [5.0, 7.0]])
    assert report.passed
    assert report.lhs == report.rhs == 4.0
    assert report.residual == 0.0


def test_geometric_mean_is_bisymmetric():
    report = bisymmetry_check(geometric_mean(I010), [[1.0, 4.0], [2.0, 8.0]])
    assert report.passed
    assert report.residual <= 1e-12
    assert report.lhs == pytest.approx(64.0 ** 0.25, rel=1e-12)


def test_bisymmetry_orientation_is_rows_then_columns():
    # Lehmer is not bisymmetric, so the two sides differ and each one can
    # be pinned against its own closed form.
    m = [[1.0, 2.0], [3.0, 4.0]]
    report = bisymmetry_check(lehmer_mean(I010), m)
    want_lhs = lehmer2(lehmer2(1.0, 2.0), lehmer2(3.0, 4.0))  # row means first
    want_rhs = lehmer2(lehmer2(1.0, 3.0), lehmer2(2.0, 4.0))  # column means first
    assert report.lhs == pytest.approx(want_lhs, rel=1e-12)
    assert report.rhs == pytest.approx(want_rhs, rel=1e-12)
    assert not report.passed
    assert report.residual == pytest.approx(abs(want_lhs - want_rhs), rel=1e-12)


def test_lehmer_violates_bisymmetry_somewhere():
    mean = lehmer_mean(I010)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        report = bisymmetry_check(mean, random_matrix(rng, I010, 2))
        worst = max(worst, report.residual)
    assert worst > 1e-4


@pytest.mark.parametrize("name", ["x", "log(x)", "x^2"])
def test_quasi_arithmetic_means_are_bisymmetric(name):
    from meanlab import builtin_generator

    g = builtin_generator(name)
    mean = QuasiArithmeticMean(g)
    rng = np.random.default_rng(1)
    for _ in range(100):
        report = bisymmetry_check(mean, random_matrix(rng, g.domain, 2))
        assert report.passed, report


def test_report_residual_is_absolute_gap():
    report = bisymmetry_check(lehmer_mean(I010), [[0.5, 9.0], [4.0, 1.0]])
    assert report.residual == abs(report.lhs - report.rhs)


def test_verdict_is_relative_to_the_right_side():
    # the blend is not bisymmetric; pick tol so that its residual lies
    # strictly between tol and tol * |rhs|
    blend = minmax_blend(Interval(1e6, 1e7))
    m = [[2e6, 9e6], [5e6, 3e6]]
    probe = bisymmetry_check(blend, m)
    tol = 2 * probe.residual / abs(probe.rhs)
    assert tol < probe.residual < tol * abs(probe.rhs)
    assert bisymmetry_check(blend, m, tol).passed
    assert not bisymmetry_check(blend, m, tol / 4).passed


def test_verdict_is_relative_below_one():
    # the whole interval is 1e-9 wide and the blend's residual 1.2e-11: an
    # absolute floor of tol = 1e-9 would pass it
    blend = minmax_blend(Interval(0.0, 1e-9))
    report = bisymmetry_check(blend, [[1e-10, 9e-10], [5e-10, 2e-10]])
    assert report.residual == pytest.approx(1.2e-11, rel=1e-3)
    assert not report.passed


# --- generalized bisymmetry for generator systems -------------------------------


def test_equal_generators_reduce_to_plain_bisymmetry():
    s = GeneratorSystem([Generator.from_expression("x", I010)] * 2)
    report = generalized_bisymmetry_check(s, [[1.0, 2.0], [3.0, 4.0]])
    assert report.passed
    assert report.residual <= 1e-12
    assert report.lhs == pytest.approx(2.5, abs=1e-12)  # grand arithmetic mean


def test_weighted_pair_identity():
    report = generalized_bisymmetry_check(builtin_system("x,2*x"), [[1.0, 2.0], [3.0, 4.0]])
    assert report.passed
    assert report.residual <= 1e-8
    # closed forms: inner (u+2v)/3 and (2u+v)/3, outer the arithmetic mean
    assert report.lhs == pytest.approx(2.5, abs=1e-9)


def test_ieg_lhs_reads_columns():
    # substitute a matrix whose columns are constant: the column side then
    # collapses to means of constant vectors, i.e. plain entries
    s = builtin_system("x,2*x")
    m = [[1.0, 4.0], [1.0, 4.0]]  # column j is (m[0][j], m[1][j]), constant
    report = generalized_bisymmetry_check(s, m)
    # lhs: outer of (inner0(1,1), inner1(4,4)) = outer(1, 4) = A_{3x}(1,4) = 2.5
    assert report.lhs == pytest.approx(2.5, abs=1e-9)
    # rhs: outer of (inner0(1,4), inner1(1,4)) = AM(3, 2) = 2.5 as well
    assert report.passed


@pytest.mark.parametrize("name", ["x,2*x", "log(x),x", "x,x^2,x^3"])
def test_identity_on_random_matrices(name):
    system = builtin_system(name)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        report = generalized_bisymmetry_check(
            system, random_matrix(rng, system.domain, system.n)
        )
        worst = max(worst, report.residual)
        assert report.passed
    assert worst <= 1e-7


def test_constant_column_matrices_collapse_to_invariance():
    # rows constant at y_i makes every column the vector y; the identity
    # then degenerates to |K(M(y)) - K(y)| for the closed-form K
    system = builtin_system("x,x^3")
    mean = GeneralizedQuasiArithmeticMean(system)
    total = system.sum_generator()
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = [float(v) for v in system.domain.sample(rng, 2)]
        matrix = [[y[0]] * 2, [y[1]] * 2]
        report = generalized_bisymmetry_check(system, matrix)
        image = [mean([y[0], y[1]]), mean([y[1], y[0]])]
        invariance = abs(qam_eval(total, image) - qam_eval(total, y))
        assert report.residual == pytest.approx(invariance, abs=1e-9)


# --- generalized bisymmetry for a bare mean --------------------------------------


def test_gbs_weighted_pair_with_closed_form_limit():
    dom = Interval(-1.0, 10.0)
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x", dom))
    am = fixed_arity(arithmetic_mean(dom), 2)
    report = gbs_for_mean_check(mean, am, [[0.0, 3.0], [1.0, 2.0]])
    assert report.passed
    assert report.residual <= 1e-7
    assert report.lhs == pytest.approx(5.0 / 3.0, abs=1e-9)


def test_gbs_symmetric_mean_reduces_to_bisymmetry():
    dom = Interval(0.1, 10.0)
    from meanlab import builtin_generator

    gm = fixed_arity(QuasiArithmeticMean(builtin_generator("log(x)", dom)), 2)
    comp = GaussComposition(cyclic_mapping(gm), gap_tol=1e-11)
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_matrix(rng, dom, 2)
        gbs = gbs_for_mean_check(gm, comp, m)
        bs = bisymmetry_check(gm, m)
        assert gbs.passed
        assert gbs.lhs == pytest.approx(bs.lhs, abs=1e-9)


def test_gbs_orientation_columns_on_the_left():
    # Lehmer's rotation family composes to a genuinely two-sided failure,
    # which exposes which orientation landed in lhs
    mean = fixed_arity(lehmer_mean(I010), 2)
    mapping = cyclic_mapping(mean)
    comp = GaussComposition(mapping)
    lo, hi = I010.grid(2)
    m = ((lo, 5.0), (hi, 5.0))
    report = gbs_for_mean_check(mean, comp, m)
    l_rows = [mean(m[0]), mean((m[1][1], m[1][0]))]
    l_cols = [mean((m[0][0], m[1][0])), mean((m[1][1], m[0][1]))]
    assert report.lhs == pytest.approx(comp(l_cols), abs=1e-9)
    assert report.rhs == pytest.approx(comp(l_rows), abs=1e-9)
    assert report.residual > 1e-4  # the counterexample the search relies on


def test_identity_form_is_the_equation_for_the_system_mean():
    system = builtin_system("x,x^3")
    m = ((0.2, 4.5), (3.0, 0.7))
    closed_form = QuasiArithmeticMean(system.sum_generator())
    direct = gbs_for_mean_check(GeneralizedQuasiArithmeticMean(system), closed_form, m)
    report = generalized_bisymmetry_check(system, m)
    assert report._asdict() == direct._asdict()
    assert report.equation == "generalized-bisymmetry"


def test_gbs_needs_fixed_arity():
    variadic = QuasiArithmeticMean(Generator.from_expression("x", I010))
    comp = fixed_arity(arithmetic_mean(I010), 2)
    with pytest.raises(ValueError, match="a variadic mean needs an explicit arity"):
        gbs_for_mean_check(variadic, comp, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_bisymmetry_check_checks_only_the_outer_means_points(checked_points, n):
    # validate_matrix checks every entry; the inner means evaluate the
    # rows and columns as they are, the outer mean checks their means
    mean = QuasiArithmeticMean(Generator.from_expression("log(x)", Interval(0.1, 10.0)))
    m = random_matrix(np.random.default_rng(n), mean.domain, n)
    bisymmetry_check(mean, m)
    seen = list(checked_points)
    assert seen == [[mean(row) for row in m], [mean(column) for column in zip(*m)]]


@pytest.mark.parametrize("name", ["x,2*x", "x,x^3", "x,x^2,x^3"])
def test_a_generalized_bisymmetry_check_checks_only_the_points_of_k(checked_points, name):
    system = builtin_system(name)
    mean = GeneralizedQuasiArithmeticMean(system)
    m = random_matrix(np.random.default_rng(7), system.domain, system.n)
    am = fixed_arity(arithmetic_mean(system.domain), system.n)
    report = generalized_bisymmetry_check(system, m)
    gbs_for_mean_check(mean, am, m)
    seen = list(checked_points)
    comps = cyclic_mapping(mean).components
    inner = [[c(row) for c, row in zip(comps, m)],
             [c(column) for c, column in zip(comps, zip(*m))]]
    assert seen == inner + inner
    assert report.passed


def test_checked_rows_and_columns_reach_each_mean_in_a_list_of_its_own():
    # a mean that reverses the list it is handed, then returns its first
    # entry, the last point: handing it the matrix's own rows or a shared
    # list would change what it or another mean sees
    def last(pts):
        pts.reverse()
        return pts[0]

    rev = FunctionMean(last, I010, arity=3, label="last")
    m = ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.5, 9.0))
    report = bisymmetry_check(rev, m)
    assert report.lhs == rev([rev(row) for row in m]) == 9.0
    assert report.rhs == rev([rev(column) for column in zip(*m)]) == 9.0
    k = fixed_arity(arithmetic_mean(I010), 3)
    comps = cyclic_mapping(rev).components
    report = gbs_for_mean_check(rev, k, m)
    assert report.rhs == k([c(row) for c, row in zip(comps, m)])
    assert report.lhs == k([c(column) for c, column in zip(comps, zip(*m))])


# --- associativity ----------------------------------------------------------------


def test_associativity_identity_generator():
    report = associativity_check(
        Generator.from_expression("x", I010), (1.0, 2.0), (3.0, 5.0)
    )
    assert report.passed
    assert report.lhs == pytest.approx(11.0 / 4.0, abs=1e-12)
    assert report.residual <= 1e-12


def test_associativity_log_generator():
    g = Generator.from_expression("log(x)", Interval(0.1, 20.0))
    report = associativity_check(g, (1.0,), (4.0, 16.0))
    assert report.passed
    assert report.lhs == pytest.approx(4.0, abs=1e-10)
    assert report.residual <= 1e-10


def test_associativity_exp_generator_random():
    g = Generator.from_expression("exp(x)", Interval(0.0, 5.0))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        xs = tuple(float(v) for v in g.domain.sample(rng, 2))
        ys = tuple(float(v) for v in g.domain.sample(rng, 3))
        report = associativity_check(g, xs, ys)
        worst = max(worst, report.residual)
        assert report.passed
    assert worst <= 1e-9


def test_associativity_rejects_empty():
    g = Generator.from_expression("x", I010)
    with pytest.raises(ValueError):
        associativity_check(g, (), (1.0,))


def test_an_associativity_check_checks_its_points_once(checked_points):
    g = Generator.from_expression("exp(x)", Interval(0.0, 3.0))
    report = associativity_check(g, (0.5, 1), (2.0, 2.5, 0.1))
    seen = list(checked_points)
    assert seen == [[0.5, 1.0, 2.0, 2.5, 0.1]]
    y = qam_eval(g, (2.0, 2.5, 0.1))
    assert report.lhs == qam_eval(g, (0.5, 1.0, 2.0, 2.5, 0.1))
    assert report.rhs == qam_eval(g, (0.5, 1.0, y, y, y))
    with pytest.raises(DomainError, match="point 3.5 is outside"):
        associativity_check(g, (0.5, 1.0), (2.0, 3.5))


# --- the characterization pipeline --------------------------------------------------


def test_characterize_accepts_weighted_pair():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    verdict = characterize(mean, trials=30)
    assert verdict.consistent
    assert verdict.failed_conditions == ()
    assert verdict.witness_matrix is None
    assert "consistent" in verdict.summary()
    assert dict(verdict.phases)["generalized-bisymmetry"]


def test_characterize_refutes_lehmer_with_witness():
    verdict = characterize(lehmer_mean(I010))
    assert not verdict.consistent
    assert "generalized-bisymmetry" in verdict.failed_conditions
    # Lehmer is also non-monotone near the axes: lowering the small
    # coordinate raises the mean, which the growth probe must notice
    assert "strict-monotonicity" in verdict.failed_conditions
    assert verdict.witness_matrix is not None
    assert verdict.witness_residual > 1e-4
    assert verdict.summary().startswith("refuted")


def test_characterize_refutes_blend_by_bisymmetry_alone():
    verdict = characterize(minmax_blend(I010))
    assert not verdict.consistent
    # every coordinate of the blend is strictly increasing at arity 2, so
    # only the two-sided equation can refute it
    assert verdict.failed_conditions == ("generalized-bisymmetry",)
    assert verdict.witness_matrix is not None
    assert verdict.witness_residual > 1e-4


def test_characterize_is_deterministic():
    a = characterize(lehmer_mean(I010))
    b = characterize(lehmer_mean(I010))
    assert a.witness_matrix == b.witness_matrix
    assert a.witness_residual == b.witness_residual
    assert a.trials_run == b.trials_run


def test_characterize_runs_every_phase_despite_failures():
    # a short-circuiting pipeline would stop at the monotonicity failure
    # and never produce the bisymmetry witness; all phases must report
    verdict = characterize(lehmer_mean(I010))
    names = [name for name, _ in verdict.phases]
    assert names == [
        "continuity",
        "strict-monotonicity",
        "reflexivity",
        "generalized-bisymmetry",
    ]


def test_characterize_evaluates_the_rotations_its_composition_iterates(monkeypatch):
    # one rotation family: the mean of the witness equation is the first
    # component of the mapping whose Gauss composition is K
    seen = []
    check = bisymmetry.gbs_for_mean_check

    def spy(mean, composition, matrix, tol):
        seen.append(mean is composition.mapping.components[0])
        return check(mean, composition, matrix, tol)

    monkeypatch.setattr(bisymmetry, "gbs_for_mean_check", spy)
    characterize(lehmer_mean(I010), trials=5)
    assert seen and all(seen)


def test_characterize_takes_the_arity_fixed_arity_pins():
    # a variadic mean is examined at arity 2 unless fixed_arity pins another
    assert len(characterize(lehmer_mean(I010), trials=20).witness_matrix) == 2
    verdict = characterize(fixed_arity(lehmer_mean(I010), 3), trials=20)
    assert not verdict.consistent
    assert "generalized-bisymmetry" in verdict.failed_conditions
    assert len(verdict.witness_matrix) == 3
    assert all(len(row) == 3 for row in verdict.witness_matrix)


def test_characterize_fails_a_composition_that_does_not_converge():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3"))
    verdict = characterize(mean, trials=5, max_iterations=1)
    assert verdict.failed_conditions == ("composition-convergence",)
    assert verdict.trials_run == 0
    assert "composition did not converge" in verdict.notes


def test_characterize_fails_a_composition_no_matrix_can_evaluate(monkeypatch):
    def diverge(mean, composition, matrix, tol):
        raise ConvergenceError("budget exhausted")

    monkeypatch.setattr(bisymmetry, "gbs_for_mean_check", diverge)
    verdict = characterize(GeneralizedQuasiArithmeticMean(builtin_system("x,2*x")), trials=5)
    # the 81 matrices of the 3-point lattice, then the random ones
    assert verdict.trials_run == 86
    assert "86 matrices skipped" in verdict.notes
    assert dict(verdict.phases)["composition-convergence"] is False
    assert dict(verdict.phases)["generalized-bisymmetry"] is True


def test_characterize_runs_one_orbit_per_distinct_vector(monkeypatch):
    # the lattice meets the same K inputs on many sides; K's limits are kept
    starts = []
    iterate = gauss.gauss_iterate

    def spy(mapping, xs, *args):
        starts.append(tuple(xs))
        return iterate(mapping, xs, *args)

    monkeypatch.setattr(gauss, "gauss_iterate", spy)
    verdict = characterize(GeneralizedQuasiArithmeticMean(builtin_system("x,2*x")), trials=5)
    assert verdict.consistent and verdict.trials_run == 86
    # 2 K inputs per matrix, fewer distinct ones
    assert 0 < len(starts) == len(set(starts)) < 2 * 86


def test_characterize_runs_its_convergence_probe_once(monkeypatch):
    # the probe before the witness search evaluates K, which keeps its
    # limit, so the lattice's matrix that meets the probe vector reuses it
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    probe = tuple(mean.domain.grid(2))
    starts = []
    orbit = kernels.ACTIVE.cyclic_gauss

    def spy(step, x0, *args):
        starts.append(tuple(x0))
        return orbit(step, x0, *args)

    monkeypatch.setattr(kernels, "ACTIVE", kernels.ACTIVE._replace(cyclic_gauss=spy))
    verdict = characterize(mean, trials=5)
    assert verdict.consistent and verdict.trials_run == 86
    assert starts[0] == probe and starts.count(probe) == 1
    assert len(starts) == len(set(starts))


def _family_builds(monkeypatch):
    """The means whose rotation family bisymmetry builds from now on."""
    builds = []
    build = bisymmetry.cyclic_mapping

    def spy(mean, *args):
        builds.append(mean)
        return build(mean, *args)

    monkeypatch.setattr(bisymmetry, "cyclic_mapping", spy)
    return builds


@pytest.mark.parametrize("mean", [
    GeneralizedQuasiArithmeticMean(builtin_system("x,2*x")),
    lehmer_mean(I010),
], ids=["gqam", "variadic"])
def test_characterize_builds_one_rotation_family(monkeypatch, mean):
    # K holds the family the witness search evaluates for every matrix
    builds = _family_builds(monkeypatch)
    verdict = characterize(mean, trials=5)
    assert verdict.trials_run > 1 and len(builds) == 1


def test_the_generalized_check_builds_the_rotations_of_another_mean(monkeypatch):
    # a K built over one mean's rotations, kept or public, hands them only
    # to that mean
    gm = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    other = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3"))
    kept = bisymmetry._KeptComposition(cyclic_mapping(gm), 1e-11, 2000)
    public = GaussComposition(cyclic_mapping(gm), 1e-11, 2000)
    m = [[1.0, 3.0], [2.0, 4.0]]
    built = gbs_for_mean_check(gm, public, m)
    builds = _family_builds(monkeypatch)
    assert gbs_for_mean_check(gm, public, m) == built
    assert gbs_for_mean_check(gm, kept, m) == built
    assert builds == []
    gbs_for_mean_check(other, kept, m)
    gbs_for_mean_check(other, public, m)
    assert builds == [other, other]


def test_characterize_runs_k_in_the_tracers_gauss_span(monkeypatch):
    # every K orbit, kept or not, goes through gauss_iterate: each fused
    # kernel call sits in a gauss span of the benchmark's tracer
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        verdict = characterize(GeneralizedQuasiArithmeticMean(builtin_system("x,2*x")), trials=5)
    finally:
        uninstall()
    assert verdict.consistent and verdict.trials_run > 1
    assert tracer.calls["gauss"] == tracer.calls["kernels.cyclic_gauss"] > verdict.trials_run


def test_characterize_keeps_no_limit_whose_orbit_raises(monkeypatch):
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    # the lattice's middle value: K inputs that start with it recur, and
    # the convergence probe's vector, the interval's two ends, is not one
    middle = mean.domain.grid(bisymmetry.LATTICE_POINTS)[1]
    iterate = gauss.gauss_iterate
    raised = []

    def spy(mapping, xs, *args):
        if xs[0] == middle:
            raised.append(tuple(xs))
            raise ConvergenceError("budget exhausted")
        return iterate(mapping, xs, *args)

    monkeypatch.setattr(gauss, "gauss_iterate", spy)
    verdict = characterize(mean, trials=5)
    # a repeated vector runs, and is skipped, every time it comes back
    assert len(raised) > len(set(raised))
    assert f"{len(raised)} matrices skipped" in verdict.notes


def test_characterize_refutes_a_mean_the_composition_rejects():
    # the rotations leave the interval, so K's component check rejects them
    # before the witness search could step outside it
    over = FunctionMean(lambda pts: max(pts) + 1e-3, I010, arity=2, label="over")
    verdict = characterize(over, trials=5)
    assert verdict.failed_conditions == (
        "strict-monotonicity", "reflexivity", "composition-convergence")
    assert verdict.trials_run == 0
    assert "component 'over' fails the mean property" in verdict.notes
    assert "outside" in verdict.notes


def test_characterize_keeps_the_budget_check():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        characterize(mean, trials=5, max_iterations=0)
