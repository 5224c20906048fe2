"""Cyclic rotation arithmetic and the induced mean families.

Rotation is exact index work, so its tests rotate the positions 0..n-1
themselves and use equality with zero tolerance.  sigma in a test name
is the paper's backward rotation, whose i-th power ``rotated(xs, i)``
applies to a vector.
"""

import itertools

import numpy as np
import pytest

from meanlab import (
    DomainError,
    FunctionMean,
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    MeanTypeMapping,
    PermutedMean,
    arithmetic_mean,
    builtin_system,
    cyclic_mapping,
    gauss_iterate,
    lehmer_mean,
    mean_property_check,
    rotated,
)
from meanlab.cyclic import fixed_arity, rotation_base
from meanlab.means import QuasiArithmeticMean


# --- vector rotation ---------------------------------------------------------


def test_sigma_pow_inverse_undoes_sigma():
    for n in range(1, 8):
        idx = tuple(range(n))
        assert rotated(rotated(idx, 1), -1) == idx
        assert rotated(rotated(idx, -1), 1) == idx


def test_sigma_pow_periodic_in_exponent():
    for n in range(1, 10):
        idx = tuple(range(n))
        for i in range(-2 * n, 2 * n + 1):
            assert rotated(idx, i + n) == rotated(idx, i)


def test_sigma_pow_composes_additively():
    for n in (2, 3, 5):
        idx = tuple(range(n))
        for i, j in itertools.product(range(-n, n + 1), repeat=2):
            assert rotated(rotated(idx, j), i) == rotated(idx, i + j)


def test_rotated_zero_is_identity():
    xs = (1.0, 2.0, 3.0)
    assert rotated(xs, 0) == xs
    assert rotated(xs, 3) == xs
    assert rotated(xs, 1) == (3.0, 1.0, 2.0)


# --- permuted means -----------------------------------------------------------


DOM = Interval(-1.0, 10.0)  # admits 0 so the worked example below is interior


def weighted_pair_mean(domain=DOM):
    gens = [Generator.from_expression(s, domain) for s in ("x", "2*x")]
    return GeneralizedQuasiArithmeticMean(GeneratorSystem(gens))


def test_permuted_mean_closed_form():
    m = weighted_pair_mean()
    assert PermutedMean(m, 1)([0.0, 3.0]) == pytest.approx(1.0, abs=1e-10)
    assert m([0.0, 3.0]) == pytest.approx(2.0, abs=1e-10)


def test_symmetric_mean_is_rotation_blind():
    am = arithmetic_mean(DOM)
    rotations = cyclic_mapping(fixed_arity(am, 3)).components
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = DOM.sample(rng, 3)
        for rotation in rotations:
            assert rotation(pts) == pytest.approx(am(pts), rel=1e-15)


def test_full_cycle_is_identity_on_random_triples():
    m = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = m.domain.sample(rng, 3)
        assert PermutedMean(m, 3)(pts) == m(pts)


def test_permuted_mean_refuses_a_conflicting_arity_when_built():
    fixed2 = weighted_pair_mean()
    with pytest.raises(ValueError, match="mean 'gqam\\[x,2\\*x\\]' has arity 2, not 3"):
        PermutedMean(fixed2, 1, 3)
    assert PermutedMean(fixed2, 1, 2).arity == 2
    assert PermutedMean(arithmetic_mean(DOM), 1, 3).arity == 3


def test_a_rotated_mean_checks_its_points_once(checked_points):
    # the rotation checks the caller's points, and its base evaluates the
    # rotated points without checking them again
    assert PermutedMean(weighted_pair_mean(), 1)([0.0, 3.0]) == pytest.approx(1.0)
    assert checked_points == [[0.0, 3.0]]


def test_permuted_label():
    m = weighted_pair_mean()
    assert PermutedMean(m, 1).label.endswith("<1>")


# --- mean-type mappings --------------------------------------------------------


def test_cyclic_mapping_components():
    m = weighted_pair_mean()
    mapping = cyclic_mapping(m)
    assert mapping.arity == 2
    a, b = mapping.apply((0.0, 3.0))
    assert a == pytest.approx(2.0, abs=1e-10)  # (0 + 2*3)/3
    assert b == pytest.approx(1.0, abs=1e-10)  # (3 + 2*0)/3


def test_cyclic_mapping_components_are_means():
    m = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    mapping = cyclic_mapping(m)
    assert len(mapping.components) == 3
    rng = np.random.default_rng(9)
    for _ in range(10):
        pts = m.domain.sample(rng, 3)
        for comp in mapping.components:
            assert mean_property_check(comp, pts).passed


def test_cyclic_mapping_fused_flag():
    # the fused orbit runs where the components rotate a GQAM, lowered
    # members or callable ones alike
    expressions = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    assert rotation_base(cyclic_mapping(expressions).components) is expressions
    callable_backed = GeneralizedQuasiArithmeticMean(GeneratorSystem([
        Generator.from_callable(lambda x: x, DOM, label="x"),
        Generator.from_callable(lambda x: 2 * x, DOM, label="2*x"),
    ]))
    assert rotation_base(cyclic_mapping(callable_backed).components) is callable_backed
    three = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    assert rotation_base(cyclic_mapping(three).components) is three
    # a variadic mean pinned to 2 arguments: the pin is the base, and it
    # is no GQAM, so its orbit steps through apply
    pinned = fixed_arity(arithmetic_mean(DOM), 2)
    assert rotation_base(cyclic_mapping(pinned).components) is pinned


def test_rotation_base_refuses_other_families():
    # the rotations of a variadic mean pinned to 3 arguments are the pin's
    pinned = fixed_arity(arithmetic_mean(DOM), 3)
    assert rotation_base(cyclic_mapping(pinned).components) is pinned
    m = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    shuffled = [m, PermutedMean(m, 2, 3), PermutedMean(m, 1, 3)]
    assert rotation_base(shuffled) is None
    g = weighted_pair_mean()
    other = GeneralizedQuasiArithmeticMean(builtin_system("x,x^3", DOM))
    assert rotation_base([g, PermutedMean(other, 1, 2)]) is None
    assert rotation_base([g, g]) is None


def test_a_mapping_takes_no_system():
    m = weighted_pair_mean()
    comps = cyclic_mapping(m).components
    with pytest.raises(TypeError):
        MeanTypeMapping(comps, system=m.system)
    assert not hasattr(MeanTypeMapping(comps), "system")


def test_cyclic_mapping_variadic_needs_arity():
    am = arithmetic_mean(DOM)
    with pytest.raises(ValueError, match="^a variadic mean needs an explicit arity"):
        cyclic_mapping(am)
    mapping = cyclic_mapping(fixed_arity(am, 3))
    assert mapping.arity == 3
    assert [c.label for c in mapping.components] == ["AM", "AM<1>", "AM<2>"]


def test_cyclic_mapping_arity_conflict():
    # fixed_arity is the one arity pin: cyclic_mapping takes no arity,
    # and a fixed-arity mean pinned to another arity is refused
    m = weighted_pair_mean()
    with pytest.raises(TypeError):
        cyclic_mapping(m, arity=2)
    with pytest.raises(ValueError, match="has arity 2, not 3"):
        cyclic_mapping(fixed_arity(m, 3))


def test_mapping_validates_components():
    m2 = weighted_pair_mean()
    m3 = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    with pytest.raises(ValueError):
        MeanTypeMapping([m2, m3])  # arities 2 and 3 cannot share a mapping
    with pytest.raises(ValueError):
        MeanTypeMapping([])


def test_mapping_rejects_mixed_domains():
    a = arithmetic_mean(DOM)
    b = arithmetic_mean(Interval(0.0, 5.0))
    with pytest.raises(ValueError):
        MeanTypeMapping([fixed_arity(a, 2), fixed_arity(b, 2)])


def test_mapping_refuses_a_component_of_another_arity():
    m = weighted_pair_mean()
    with pytest.raises(ValueError) as exc:
        MeanTypeMapping([m, m, m])
    assert str(exc.value) == f"component {m.label!r} has arity 2, expected 3"


def test_a_mapping_checks_a_vector_as_its_means_do():
    # one check: the count message names the mapping as a mean's names the mean
    mean = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    mapping = cyclic_mapping(mean)
    for checked, label in ((mapping.checked, mapping.label), (mean, mean.label)):
        with pytest.raises(ValueError) as exc:
            checked([1.0, 2.0])
        assert str(exc.value) == f"{label!r} expects 3 points, got 2"
    assert mapping.label == f"cyclic[{mean.label}]"
    assert mapping.checked((1, 2.5, 3)) == [1.0, 2.5, 3.0]


def test_mapping_apply_checks_length():
    mapping = cyclic_mapping(weighted_pair_mean())
    with pytest.raises(ValueError):
        mapping.apply((1.0, 2.0, 3.0))


@pytest.mark.parametrize("mean,arity", [
    (weighted_pair_mean(), None),
    (GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3")), None),
    (lehmer_mean(Interval(0.0, 10.0)), 3),
])
def test_a_mapping_step_checks_its_points_once(checked_points, mean, arity):
    mapping = cyclic_mapping(mean if arity is None else fixed_arity(mean, arity))
    xs = [1.0, 3.0, 4.5][:mapping.arity]
    step = mapping.apply(xs)
    assert checked_points == [xs]
    assert step == tuple(c(xs) for c in mapping.components)


def test_a_generic_gauss_step_checks_its_points_once(checked_points):
    mapping = cyclic_mapping(fixed_arity(lehmer_mean(Interval(0.0, 10.0)), 3))
    _, trace = gauss_iterate(mapping, [1.0, 2.0, 7.0])
    # gauss_iterate checks the start, then each step its own input
    steps = [list(row) for row in trace.iterates[:trace.iterations_used]]
    assert checked_points == [[1.0, 2.0, 7.0], *steps]


def test_a_mapping_step_rejects_a_point_outside_the_interval():
    with pytest.raises(DomainError, match="point 12.0 is outside"):
        cyclic_mapping(weighted_pair_mean()).apply((1.0, 12.0))


def reversing_mean(domain, arity):
    """A mean that reverses the list it is handed and returns its new
    first entry: the last point, if no other mean shares that list."""
    def last(pts):
        pts.reverse()
        return pts[0]

    return FunctionMean(last, domain, arity=arity, label="last")


def test_a_mapping_step_hands_each_component_its_own_list():
    m = reversing_mean(DOM, 3)
    xs = [1.0, 2.0, 7.0]
    for mapping in (MeanTypeMapping([m, m, m]), cyclic_mapping(m)):
        assert mapping.apply(xs) == tuple(c(xs) for c in mapping.components)
    assert MeanTypeMapping([m, m, m]).apply(xs) == (7.0, 7.0, 7.0)
    assert xs == [1.0, 2.0, 7.0]


# --- arity pinning and shared domains -------------------------------------------


def test_fixed_arity_passthrough_and_pin():
    m = weighted_pair_mean()
    assert fixed_arity(m, 2) is m
    with pytest.raises(ValueError):
        fixed_arity(m, 3)
    pinned = fixed_arity(QuasiArithmeticMean(Generator.from_expression("x", DOM)), 3)
    assert pinned.arity == 3
    assert pinned((1.0, 2.0, 3.0)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        pinned((1.0, 2.0))
