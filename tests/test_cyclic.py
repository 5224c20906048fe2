"""Cyclic rotation arithmetic and the induced mean families.

Everything in the index layer is exact integer work, so those tests use
equality with zero tolerance.
"""

import itertools

import numpy as np
import pytest

from meanlab import (
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    MeanTypeMapping,
    PermutedMean,
    arithmetic_mean,
    builtin_system,
    cyclic_mapping,
    mean_property_check,
    permuted_mean,
    rotated,
    sigma,
    sigma_pow,
)
from meanlab.cyclic import fixed_arity
from meanlab.means import QuasiArithmeticMean


# --- the rotation step ------------------------------------------------------


def test_sigma_wraps_first_position():
    assert sigma(4, 1) == 4


def test_sigma_steps_down():
    assert sigma(4, 3) == 2


def test_sigma_two_cycle():
    assert sigma(2, 2) == 1
    assert sigma(2, 1) == 2


def test_sigma_bounds():
    with pytest.raises(IndexError):
        sigma(4, 0)
    with pytest.raises(IndexError):
        sigma(4, 5)
    with pytest.raises(ValueError):
        sigma(0, 1)


def test_sigma_pow_examples():
    assert sigma_pow(5, 3, 3) == 5
    assert sigma_pow(5, 0, 4) == 4
    assert sigma_pow(5, -1, 5) == 1


def test_sigma_pow_inverse_undoes_sigma():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert sigma_pow(n, -1, sigma(n, k)) == k
            assert sigma(n, sigma_pow(n, -1, k)) == k


def test_sigma_pow_is_iterated_sigma():
    for n in range(1, 9):
        for i in range(0, 2 * n):
            for k in range(1, n + 1):
                v = k
                for _ in range(i):
                    v = sigma(n, v)
                assert sigma_pow(n, i, k) == v


# the three exact identities, every n up to 12, no tolerance anywhere


def test_sigma_order_n_is_identity():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert sigma_pow(n, n, k) == k


def test_sigma_i_of_i_lands_on_n():
    for n in range(1, 13):
        for i in range(1, n + 1):
            assert sigma_pow(n, i, i) == n


def test_sigma_exponent_symmetry():
    for n in range(1, 13):
        for alpha in range(1, n + 1):
            for beta in range(1, n + 1):
                assert sigma_pow(n, 1 - beta, alpha) == sigma_pow(n, 1 - alpha, beta)


def test_sigma_pow_periodic_in_exponent():
    for n in range(1, 10):
        for i in range(-2 * n, 2 * n + 1):
            for k in range(1, n + 1):
                assert sigma_pow(n, i + n, k) == sigma_pow(n, i, k)


def test_sigma_pow_composes_additively():
    for n in (2, 3, 5):
        for i, j in itertools.product(range(-n, n + 1), repeat=2):
            for k in range(1, n + 1):
                assert sigma_pow(n, i, sigma_pow(n, j, k)) == sigma_pow(n, i + j, k)


# --- vector rotation ---------------------------------------------------------


def test_rotated_matches_sigma_pow():
    xs = (10.0, 20.0, 30.0, 40.0)
    n = len(xs)
    for power in range(-n, 2 * n):
        ys = rotated(xs, power)
        for k in range(1, n + 1):
            assert ys[k - 1] == xs[sigma_pow(n, power, k) - 1]


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
    assert permuted_mean(m, 1)([0.0, 3.0]) == pytest.approx(1.0, abs=1e-10)
    assert m([0.0, 3.0]) == pytest.approx(2.0, abs=1e-10)


def test_zero_shift_returns_the_mean_itself():
    m = weighted_pair_mean()
    assert permuted_mean(m, 0) is m
    assert permuted_mean(m, 2) is m  # full cycle collapses too


def test_shifts_compose_and_collapse():
    m = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    stacked = permuted_mean(permuted_mean(m, 1), 1)
    direct = permuted_mean(m, 2)
    assert isinstance(stacked, PermutedMean)
    assert stacked.shift == direct.shift == 2
    assert stacked.base is m
    pts = (0.5, 2.0, 4.0)
    assert stacked(pts) == direct(pts)
    assert permuted_mean(stacked, 1) is m


def test_symmetric_mean_is_rotation_blind():
    am = arithmetic_mean(DOM)
    pinned = fixed_arity(am, 3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = DOM.sample(rng, 3)
        for i in range(3):
            assert permuted_mean(pinned, i)(pts) == pytest.approx(am(pts), rel=1e-15)


def test_full_cycle_is_identity_on_random_triples():
    m = GeneralizedQuasiArithmeticMean(builtin_system("x,x^2,x^3"))
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = m.domain.sample(rng, 3)
        assert permuted_mean(m, 3)(pts) == m(pts)


def test_permuted_label():
    m = weighted_pair_mean()
    assert permuted_mean(m, 1).label.endswith("<1>")


# --- mean-type mappings --------------------------------------------------------


def test_cyclic_mapping_components():
    m = weighted_pair_mean()
    mapping = cyclic_mapping(m)
    assert mapping.arity == 2
    a, b = mapping((0.0, 3.0))
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
    tape_backed = GeneralizedQuasiArithmeticMean(builtin_system("x,2*x"))
    assert cyclic_mapping(tape_backed).system is not None
    callable_backed = GeneralizedQuasiArithmeticMean(GeneratorSystem([
        Generator.from_callable(lambda x: x, DOM, label="x"),
        Generator.from_callable(lambda x: 2 * x, DOM, label="2*x"),
    ]))
    assert cyclic_mapping(callable_backed).system is callable_backed.system
    assert cyclic_mapping(arithmetic_mean(DOM), arity=2).system is None


def test_cyclic_mapping_variadic_needs_arity():
    am = arithmetic_mean(DOM)
    with pytest.raises(ValueError):
        cyclic_mapping(am)
    mapping = cyclic_mapping(am, arity=3)
    assert mapping.arity == 3


def test_cyclic_mapping_arity_conflict():
    m = weighted_pair_mean()
    with pytest.raises(ValueError):
        cyclic_mapping(m, arity=3)


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


def test_mapping_apply_checks_length():
    mapping = cyclic_mapping(weighted_pair_mean())
    with pytest.raises(ValueError):
        mapping.apply((1.0, 2.0, 3.0))


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
