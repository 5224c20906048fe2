"""Functional-equation verifiers: bisymmetry, its generalized form, the
associativity check, and the characterization pipeline.

Orientation pinning: the two-sided checks are exercised with asymmetric
matrices against closed forms computed right here, so a row/column
transposition bug cannot slip through as a pass.
"""

import numpy as np
import pytest

from meanlab import (
    CharacterizeConfig,
    DomainError,
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    arithmetic_mean,
    associativity_check,
    bisymmetry_check,
    builtin_system,
    characterize,
    cyclic_mapping,
    gauss_composition,
    gbs_for_mean_check,
    generalized_bisymmetry_check,
    geometric_mean,
    lehmer_mean,
    minmax_blend,
    qam_eval,
    random_matrix,
    validate_matrix,
)
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
    with pytest.raises(ValueError):
        validate_matrix([[1.0, 2.0]], I010, rows=2)


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
    from meanlab import QuasiArithmeticMean, builtin_generator

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
    from meanlab import QuasiArithmeticMean, builtin_generator

    gm = fixed_arity(QuasiArithmeticMean(builtin_generator("log(x)", dom)), 2)
    comp = gauss_composition(cyclic_mapping(gm), gap_tol=1e-11)
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_matrix(rng, dom, 2)
        gbs = gbs_for_mean_check(gm, comp, m)
        bs = bisymmetry_check(gm, m)
        assert gbs.passed
        assert gbs.lhs == pytest.approx(bs.lhs, abs=1e-9)


def test_gbs_orientation_rows_on_the_left():
    # Lehmer's rotation family composes to a genuinely two-sided failure,
    # which exposes which orientation landed in lhs
    mean = fixed_arity(lehmer_mean(I010), 2)
    mapping = cyclic_mapping(mean)
    comp = gauss_composition(mapping)
    m = ((I010.clamp(0.0), 5.0), (10.0 - I010.inset, 5.0))
    report = gbs_for_mean_check(mean, comp, m)
    l_rows = [mean(m[0]), mean((m[1][1], m[1][0]))]
    l_cols = [mean((m[0][0], m[1][0])), mean((m[1][1], m[0][1]))]
    assert report.lhs == pytest.approx(comp(l_rows), abs=1e-9)
    assert report.rhs == pytest.approx(comp(l_cols), abs=1e-9)
    assert report.residual > 1e-4  # the counterexample the search relies on


def test_gbs_needs_fixed_arity():
    from meanlab import QuasiArithmeticMean

    variadic = QuasiArithmeticMean(Generator.from_expression("x", I010))
    comp = fixed_arity(arithmetic_mean(I010), 2)
    with pytest.raises(ValueError):
        gbs_for_mean_check(variadic, comp, [[1.0, 2.0], [3.0, 4.0]])


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


# --- the characterization pipeline --------------------------------------------------


FAST_CONFIG = CharacterizeConfig(trials=30, lattice_cap=30, probe_count=12, grid_size=8)


def test_characterize_accepts_weighted_pair():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    verdict = characterize(mean, FAST_CONFIG)
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


def test_characterize_arity_mismatch():
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    with pytest.raises(ValueError):
        characterize(mean, CharacterizeConfig(arity=2))
