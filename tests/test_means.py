"""Quasi-arithmetic means, the mean-property/reflexivity checks, and the
affine-equality decision.

Closed forms used as oracles: A_x is the arithmetic mean, A_log the
geometric, A_{x^2} the root mean square, and gqam{x,2x}(x,y) = (x+2y)/3.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from meanlab import (
    DomainError,
    EvalError,
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    MeanlabError,
    QuasiArithmeticMean,
    RangeError,
    arithmetic_mean,
    builtin_generator,
    builtin_system,
    builtin_systems,
    geometric_mean,
    gqam_equality_check,
    gqam_eval,
    lehmer_mean,
    mean_property_check,
    minmax_blend,
    qam_equality_check,
    qam_eval,
    reflexivity_check,
)
from meanlab.dsl import parse

I010 = Interval(0.0, 10.0)


def gen(source, domain=I010):
    return Generator.from_expression(source, domain)


# --- closed-form values ---------------------------------------------------


def test_identity_generator_is_arithmetic_mean():
    assert qam_eval(gen("x"), (1.0, 3.0)) == pytest.approx(2.0, abs=1e-12)


def test_log_generator_is_geometric_mean():
    assert qam_eval(gen("log(x)", Interval(0.1, 10.0)), (1.0, 4.0)) == pytest.approx(
        2.0, abs=1e-10
    )


def test_square_generator_is_rms():
    assert qam_eval(gen("x^2"), (1.0, 7.0)) == pytest.approx(5.0, abs=1e-10)


def test_qam_variadic():
    assert qam_eval(gen("x"), (1.0, 2.0, 3.0, 6.0)) == pytest.approx(3.0, abs=1e-12)
    assert qam_eval(gen("x"), (4.0,)) == pytest.approx(4.0)


def test_gqam_equal_generators_reduces_to_qam():
    s = GeneratorSystem([gen("x"), gen("x")])
    assert gqam_eval(s, (1.0, 3.0)) == pytest.approx(2.0, abs=1e-12)


def test_gqam_weighted_arithmetic():
    s = builtin_system("x,2*x")
    assert gqam_eval(s, (0.5, 3.0)) == pytest.approx(13.0 / 6.0, abs=1e-10)


def test_gqam_two_logs_is_geometric():
    dom = Interval(0.1, 10.0)
    s = GeneratorSystem([gen("log(x)", dom), gen("log(x)", dom)])
    assert gqam_eval(s, (1.0, 4.0)) == pytest.approx(2.0, abs=1e-10)


def test_gqam_asymmetric():
    # {log x, x}: solve log(m) + m = log(x) + y
    dom = Interval(0.1, 10.0)
    s = builtin_system("log(x),x")
    m = gqam_eval(s, (2.0, 5.0))
    assert math.log(m) + m == pytest.approx(math.log(2.0) + 5.0, abs=1e-9)
    assert 2.0 < m < 5.0


def test_points_in_the_inset_band_are_evaluated_where_they_are():
    # within 1e-9 of the width from an end, where nothing moves them
    assert qam_eval(gen("x", Interval(0.0, 1e6)), (1e-4, 2e-4)) == pytest.approx(1.5e-4, rel=1e-12)
    assert qam_eval(gen("log(x)"), (1e-300, 1.0)) == pytest.approx(1e-150, rel=1e-12)
    assert qam_eval(gen("x^3"), (1e-12, 1e-12)) == 1e-12
    s = builtin_system("x,2*x")  # on (0, 10)
    assert gqam_eval(s, (1e-12, 4e-12)) == pytest.approx(3e-12, rel=1e-12)
    assert gqam_eval(s, (1e-300, 1e-300)) == 1e-300
    dom = Interval(0.1, 5.0)
    cases = [(qam_eval, gen("x^2", dom), (0.1 + 1e-15, 0.1 + 4e-15)),
             (gqam_eval, builtin_system("x,x^3"), (0.1 + 2e-15, 0.1 + 1e-15)),
             (gqam_eval, builtin_system("x,x^2,x^3"), (5.0 - 1e-14, 5.0 - 4e-15, 5.0 - 1e-14))]
    for evaluate, subject, pts in cases:
        assert min(pts) <= evaluate(subject, pts) <= max(pts)


def test_exact_reflexivity_on_equal_points():
    # equal points hit the endpoint fast path of the bracketed inversion,
    # so the result is the input bitwise, not merely close
    s = builtin_system("x,x^3")
    for c in (0.2, 1.0, 3.7):
        assert gqam_eval(s, (c, c)) == c


def _gqam_outcome(system, pts):
    try:
        return gqam_eval(system, pts)
    except MeanlabError as exc:
        return type(exc), str(exc)


# (expression text, Python body that rounds like it) per member; the exits each
# system reaches below: x - 2x is decreasing, so its solve exits RANGE,
# and sqrt(x - 1) is not finite below 1, at a point or inside the bracket
GQAM_BODIES = {
    "x^3,2*x^3": ([("x^3", lambda x: x ** 3), ("2*x^3", lambda x: 2 * x ** 3)],
                  {float}),
    "x,0 - 2*x": ([("x", lambda x: x), ("0 - 2*x", lambda x: 0 - 2 * x)],
                  {RangeError}),
    "x,sqrt(x - 1)": ([("x", lambda x: x), ("sqrt(x - 1)", lambda x: math.sqrt(x - 1))],
                      {float, EvalError}),
}


@pytest.mark.parametrize("name", sorted(GQAM_BODIES))
def test_gqam_callable_system_matches_tape(name):
    dom = Interval(0.1, 5.0)
    members, exits = GQAM_BODIES[name]
    tree = GeneratorSystem([
        Generator(dom, expr=parse(t), label=t, validate=False)
        for t, _ in members
    ])
    fn = GeneratorSystem([
        Generator.from_callable(body, dom, label=t, validate=False) for t, body in members
    ])
    # one member of each kind
    mixed = GeneratorSystem([tree.generators[0], fn.generators[1]])
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(40):
        pts = [float(v) for v in dom.sample(rng, 2)]
        want = _gqam_outcome(tree, pts)
        assert _gqam_outcome(fn, pts) == want
        assert _gqam_outcome(mixed, pts) == want
        seen.add(want[0] if isinstance(want, tuple) else type(want))
    assert seen == exits


# --- mean objects ----------------------------------------------------------


def test_qam_mean_object():
    m = QuasiArithmeticMean(gen("log(x)", Interval(0.1, 10.0)))
    assert m([1.0, 4.0]) == pytest.approx(2.0, abs=1e-10)
    assert m.arity is None
    assert m([2.0, 2.0, 2.0]) == pytest.approx(2.0)


def test_gqam_mean_object_arity():
    m = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    assert m.arity == 2
    with pytest.raises(ValueError):
        m([1.0])
    with pytest.raises(ValueError):
        m([1.0, 2.0, 3.0])


def test_a_mean_takes_at_least_one_point():
    from meanlab import FunctionMean

    with pytest.raises(ValueError, match="arity must be at least 1"):
        FunctionMean(max, I010, arity=0)
    with pytest.raises(ValueError, match="'qam\\[x\\]' needs at least one point"):
        QuasiArithmeticMean(gen("x"))([])


def test_mean_rejects_outside_domain():
    m = QuasiArithmeticMean(gen("x"))
    with pytest.raises(DomainError):
        m([1.0, 12.0])


@pytest.mark.parametrize("evaluate", [
    lambda xs: QuasiArithmeticMean(gen("log(x)"))(xs),
    lambda xs: GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3", I010))(xs),
    lambda xs: qam_eval(gen("log(x)"), xs),
    lambda xs: gqam_eval(builtin_system("x,x^2,x^3", I010), xs),
], ids=["qam", "gqam", "qam_eval", "gqam_eval"])
def test_a_mean_checks_its_points_once(checked_points, evaluate):
    evaluate((1, 2.5, 7.0))
    assert checked_points == [[1.0, 2.5, 7.0]]


def test_the_one_shot_evaluators_check_their_points():
    f = gen("x")
    system = builtin_system("x,2*x")
    with pytest.raises(ValueError):
        qam_eval(f, [])
    with pytest.raises(ValueError):
        gqam_eval(system, [1.0])
    with pytest.raises(ValueError):
        gqam_eval(system, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        qam_eval(f, [1.0, 12.0])
    with pytest.raises(DomainError):
        gqam_eval(system, [12.0, 1.0])


@pytest.mark.parametrize("check,mean_class,first,second", [
    (qam_equality_check, QuasiArithmeticMean, "x", "x^2"),
    (gqam_equality_check, GeneralizedQuasiArithmeticMean, "x,2*x", "x,x^3"),
])
def test_an_equality_check_builds_one_mean_per_side(monkeypatch, check, mean_class,
                                                    first, second):
    # one mean object per side for all the probes, not one per probe
    built = []
    init = mean_class.__init__

    def counted(self, arg):
        built.append(arg)
        init(self, arg)

    monkeypatch.setattr(mean_class, "__init__", counted)
    def make(source):
        if mean_class is QuasiArithmeticMean:
            return gen(source)
        return GeneratorSystem([gen(part) for part in source.split(",")])

    a, b = make(first), make(second)
    report = check(a, b, probes=5)
    assert built == [a, b]
    assert not report.equal


def test_factory_values():
    assert arithmetic_mean(I010)([1.0, 3.0]) == 2.0
    assert geometric_mean(I010)([1.0, 4.0]) == pytest.approx(2.0)
    assert lehmer_mean(I010)([2.0, 4.0]) == pytest.approx(20.0 / 6.0)
    assert lehmer_mean(I010).label == "lehmer2"
    assert minmax_blend(I010)([1.0, 3.0]) == pytest.approx(2.4)
    assert minmax_blend(I010).label == "blend0.7"


def test_factory_validation():
    with pytest.raises(ValueError):
        geometric_mean(Interval(-1.0, 1.0))
    with pytest.raises(ValueError):
        lehmer_mean(Interval(-1.0, 1.0))


# --- mean property and reflexivity -----------------------------------------


def test_mean_property_strict_pair():
    report = mean_property_check(arithmetic_mean(I010), (1.0, 3.0))
    assert report.passed
    assert report.strict_checked and report.strict_ok


def test_mean_property_equality_branch():
    report = mean_property_check(arithmetic_mean(I010), (2.0, 2.0))
    assert report.passed
    assert not report.strict_checked
    assert report.strict_ok is None


def test_mean_property_detects_violation():
    from meanlab import FunctionMean

    bogus = FunctionMean(lambda pts: max(pts) + 1.0, I010, label="over")
    assert not mean_property_check(bogus, (1.0, 3.0)).passed


def test_mean_property_strictness_is_exact():
    from meanlab import FunctionMean

    # min and max are within the bounds and on one of them
    for bound in (min, max):
        report = mean_property_check(FunctionMean(bound, I010), (1.0, 3.0))
        assert report.strict_checked and report.strict_ok is False
        assert not report.passed
    # strictness is tested at any scale once the spread exceeds 1e-6 of
    # the inputs' size, and not below that
    am = arithmetic_mean(I010)
    assert mean_property_check(am, (1e-12, 2e-12)).strict_ok is True
    assert mean_property_check(am, (1.0, 1.0 + 1e-9)).strict_checked is False
    low = FunctionMean(min, I010)
    assert mean_property_check(low, (1e-12, 2e-12)).passed is False
    assert mean_property_check(low, (1.0, 1.0 + 1e-9)).passed is True


def test_mean_property_slack_follows_the_inputs_scale():
    from meanlab import FunctionMean

    # 5e-10 past the max is 250 times the inputs at this scale
    bogus = FunctionMean(lambda pts: max(pts) + 5e-10, I010, label="over")
    report = mean_property_check(bogus, (1e-12, 2e-12))
    assert not report.passed
    assert report.slack == pytest.approx(2e-21)
    assert mean_property_check(arithmetic_mean(I010), (1e-12, 2e-12)).passed


def test_mean_property_random_pairs_mixed_system():
    dom = Interval(0.0, 3.0)
    m = GeneralizedQuasiArithmeticMean(builtin_system("exp(x),x", dom))
    rng = np.random.default_rng(7)
    for _ in range(100):
        pts = dom.sample(rng, 2)
        assert mean_property_check(m, pts).passed


def test_reflexivity_examples():
    assert reflexivity_check(arithmetic_mean(I010), 7.0).passed
    assert reflexivity_check(
        GeneralizedQuasiArithmeticMean(builtin_system("x,2*x")), 0.5
    ).passed
    assert reflexivity_check(
        GeneralizedQuasiArithmeticMean(builtin_system("log(x),x")), 2.0
    ).passed


def test_reflexivity_is_relative_below_one():
    from meanlab import FunctionMean

    off = FunctionMean(lambda pts: max(pts) * (1.0 + 1e-6), I010, label="off")
    report = reflexivity_check(off, 1e-6)
    assert report.deviation == pytest.approx(1e-12, rel=1e-6)
    assert not report.passed


@pytest.mark.parametrize("name", sorted(builtin_systems()))
def test_reflexivity_on_grid(name):
    system = builtin_system(name)
    m = GeneralizedQuasiArithmeticMean(system)
    for x in system.domain.grid(32):
        assert reflexivity_check(m, float(x)).passed


# --- equality of means (affine invariance) ----------------------------------


@pytest.mark.parametrize("a", [0.5, 3.0])
@pytest.mark.parametrize("name", ["x", "x^3", "log(x)", "exp(x)"])
def test_qam_affine_invariance(a, name):
    f = builtin_generator(name)
    g = f.affine(a, 1.7)
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = f.domain.sample(rng, 3)
        assert qam_eval(g, pts) == pytest.approx(qam_eval(f, pts), abs=1e-8)


@pytest.mark.parametrize("a", [0.5, 3.0])
@pytest.mark.parametrize("name", sorted(builtin_systems()))
def test_gqam_system_affine_invariance(a, name):
    s = builtin_system(name)
    offsets = [0.3 * i - 1.0 for i in range(s.n)]
    t = s.affine(a, offsets)
    rng = np.random.default_rng(13)
    for _ in range(25):
        pts = s.domain.sample(rng, s.n)
        assert gqam_eval(t, pts) == pytest.approx(gqam_eval(s, pts), abs=1e-8)


def test_qam_equality_affine_pair():
    f = gen("x")
    report = qam_equality_check(f, gen("2*x+1"))
    assert report.equal
    assert report.slopes[0] == pytest.approx(2.0, rel=1e-10)
    assert report.offsets[0] == pytest.approx(1.0, abs=1e-9)
    assert report.max_value_gap <= 1e-9


def test_qam_equality_detects_exp():
    report = qam_equality_check(gen("x"), gen("exp(x)"))
    assert not report.equal
    assert report.fit_residuals[0] > 0.1
    assert report.max_value_gap > 1e-3


def test_identity_vs_exp_gap_closed_form():
    # the means diverge most where the points are spread; frozen from the
    # closed forms (x+y)/2 and log((e^x+e^y)/2) at (1,9)
    gap = qam_eval(gen("exp(x)"), (1.0, 9.0)) - qam_eval(gen("x"), (1.0, 9.0))
    assert gap == pytest.approx(3.3071882258129506, abs=1e-9)


def test_gqam_equality_common_slope():
    first = builtin_system("x,x^3")
    second = GeneratorSystem(
        [
            builtin_generator("x", first.domain).affine(2.0, 1.0),
            builtin_generator("x^3", first.domain).affine(2.0, -5.0),
        ]
    )
    report = gqam_equality_check(first, second)
    assert report.equal
    assert report.max_value_gap <= 1e-8


def test_gqam_equality_rejects_differing_slopes():
    # per-coordinate fits are perfect but the slopes disagree, so the
    # induced means differ; the probe gap must witness that
    first = builtin_system("x,x^3")
    second = GeneratorSystem(
        [
            builtin_generator("x", first.domain).affine(2.0, 0.0),
            builtin_generator("x^3", first.domain).affine(3.0, 0.0),
        ]
    )
    report = gqam_equality_check(first, second)
    assert not report.equal
    assert report.max_value_gap > 1e-4


def test_gqam_equality_arity_mismatch():
    with pytest.raises(ValueError):
        gqam_equality_check(builtin_system("x,2*x"), builtin_system("x,x^2,x^3"))


# --- properties --------------------------------------------------------------


SYSTEMS = builtin_systems()


def _system_points(name):
    dom, n = SYSTEMS[name].domain, SYSTEMS[name].n
    point = st.floats(dom.lo, dom.hi, exclude_min=True, exclude_max=True)
    return st.tuples(st.just(name), st.lists(point, min_size=n, max_size=n))


# a stock system and n points anywhere in its open interval, the ends'
# inset bands included
SYSTEM_POINTS = st.sampled_from(sorted(SYSTEMS)).flatmap(_system_points)


@given(SYSTEM_POINTS, st.integers(min_value=0, max_value=2))
@example(("x,2*x", [1e-300, 5e-324]), 0)
@example(("x,x^3", [0.1 + 1e-15, 5.0 - 1e-15]), 1)
@example(("x,x^2,x^3", [0.1 + 2e-15, 0.1 + 1e-15, 0.1 + 3e-15]), 2)
def test_per_variable_monotonicity(case, coord):
    name, pts = case
    system = SYSTEMS[name]
    dom = system.domain
    k = coord % system.n
    if pts[k] + 1e-3 >= dom.hi:
        pts[k] = dom.hi - 1e-2
    bumped = list(pts)
    bumped[k] = pts[k] + 1e-3
    low = gqam_eval(system, pts)
    high = gqam_eval(system, bumped)
    assert high - low > -1e-10  # strictly increasing up to inversion slack


@given(SYSTEM_POINTS)
@example(("x,2*x", [1e-300, 5e-324]))
@example(("exp(x),x", [1e-300, 2e-300]))
@example(("x,x^3", [0.1 + 1e-15, 0.1 + 3e-15]))
@example(("log(x),x", [0.1 + 1e-15, 0.1 + 2e-15]))
@example(("x,x^2,x^3", [0.1 + 2e-15, 0.1 + 1e-15, 0.1 + 3e-15]))
def test_mean_property_random(case):
    name, pts = case
    system = SYSTEMS[name]
    report = mean_property_check(GeneralizedQuasiArithmeticMean(system), pts)
    assert report.low - report.slack <= report.value <= report.high + report.slack
    # strictness fails only where the sum of the generators takes one
    # float value on the whole span (exp(x) + x at 1e-300 and 2e-300 is
    # 1.0 at both), so that no solve of it tells the mean from a bound
    total = system.sum_generator()
    assert report.passed or total.eval_inside(report.low) == total.eval_inside(report.high)
