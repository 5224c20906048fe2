"""Acceptance gate: the nine headline guarantees, one test each.

Every test prints a single [PASS]/[FAIL] line (run with `pytest -s`
to see them) and then asserts, so a red run names the broken
guarantee directly.
"""

import json
import time

import numpy as np
import pytest

from meanlab import (
    GeneralizedQuasiArithmeticMean,
    Interval,
    MeanTypeMapping,
    QuasiArithmeticMean,
    arithmetic_mean,
    associativity_check,
    builtin_generators,
    builtin_systems,
    characterize,
    composition_closed_form_check,
    gauss_iterate,
    generalized_bisymmetry_check,
    geometric_mean,
    lehmer_mean,
    mean_property_check,
    minmax_blend,
    qam_equality_check,
    qam_eval,
    reflexivity_check,
    rotated,
)
from meanlab.cli import main
from meanlab.cyclic import fixed_arity
from meanlab.kernels import warm_up

from support import strip_volatile

I010 = Interval(0.0, 10.0)


def _line(tag: str, ok: bool, extra: str = ""):
    suffix = f"  ({extra})" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}{suffix}")


def test_c1_iterated_composition_matches_closed_form():
    warm_up()
    start = time.perf_counter()
    worst = {}
    for name, system in builtin_systems().items():
        check = composition_closed_form_check(
            system, samples=200, tol=1e-7, seed=11, max_iterations=4000,
        )
        worst[name] = check.max_residual
    elapsed = time.perf_counter() - start
    _line(
        "C1 iterated composition = summed-generator mean (5 systems x 200 pts)",
        max(worst.values()) <= 1e-7 and elapsed <= 10.0,
        f"max residual {max(worst.values()):.3g}, {elapsed:.2f}s",
    )
    assert max(worst.values()) <= 1e-7, worst
    assert elapsed <= 10.0


def test_c2_generalized_bisymmetry_and_collapse():
    from meanlab import random_matrix

    worst_id = 0.0
    worst_gap = 0.0
    for name, system in builtin_systems().items():
        rng = np.random.default_rng(23)
        for _ in range(200):
            rep = generalized_bisymmetry_check(
                system, random_matrix(rng, system.domain, system.n)
            )
            worst_id = max(worst_id, rep.residual)
        # all-columns-equal input: the identity degenerates to the
        # invariance equation for the closed-form outer mean
        mean = GeneralizedQuasiArithmeticMean(system)
        total = system.sum_generator()
        n = system.n
        for _ in range(50):
            y = [float(v) for v in system.domain.sample(rng, n)]
            matrix = [[y[i]] * n for i in range(n)]
            rep = generalized_bisymmetry_check(system, matrix)
            image = [mean([y[(c - i) % n] for c in range(n)]) for i in range(n)]
            invariance = abs(qam_eval(total, image) - qam_eval(total, y))
            worst_gap = max(worst_gap, abs(rep.residual - invariance))
    ok = worst_id <= 1e-7 and worst_gap <= 1e-9
    _line(
        "C2 generalized bisymmetry (200 matrices/system) + invariance collapse",
        ok,
        f"identity {worst_id:.3g}, collapse gap {worst_gap:.3g}",
    )
    assert worst_id <= 1e-7
    assert worst_gap <= 1e-9


def test_c3_exact_rotation_identities():
    # rotated on the positions 0..n-1 themselves: entry k-1 of
    # rotated(idx, i) is sigma^i(k) - 1, sigma the paper's backward rotation
    ok = True
    for n in range(1, 13):
        idx = tuple(range(n))
        ok = ok and rotated(idx, n) == idx                        # full cycle is identity
        for k in range(1, n + 1):
            ok = ok and rotated(idx, k)[k - 1] == n - 1           # k steps from k reach n
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                ok = ok and rotated(idx, 1 - b)[a - 1] == rotated(idx, 1 - a)[b - 1]
        ok = ok and rotated(idx, 1)[0] == n - 1                   # sigma(1) = n
    _line("C3 exact cyclic-rotation identities, n <= 12, zero tolerance", ok)
    assert ok


def test_c4_agm_oracle():
    from mpmath import mp, mpf, sqrt

    mp.dps = 50
    x, y = mpf(1), mpf(2)
    for _ in range(64):
        x, y = (x + y) / 2, sqrt(x * y)
    reference = float(x)

    dom = Interval(0.5, 3.0)
    mapping = MeanTypeMapping(
        [fixed_arity(arithmetic_mean(dom), 2), fixed_arity(geometric_mean(dom), 2)]
    )
    limit, trace = gauss_iterate(mapping, [1.0, 2.0], 1e-13, 80)
    gaps_fall = all(
        trace.gaps[i + 1] < trace.gaps[i] for i in range(trace.iterations_used)
    )
    fixed = all(
        gauss_iterate(mapping, [c, c], 1e-13, 80)[0] == c
        for c in np.linspace(0.6, 2.9, 20)
    )
    ok = abs(limit - reference) <= 1e-8 and gaps_fall and fixed
    _line(
        "C4 Gauss iteration reproduces the AGM",
        ok,
        f"|limit - reference| = {abs(limit - reference):.3g}",
    )
    assert abs(limit - reference) <= 1e-8
    assert gaps_fall
    assert fixed


def test_c5_affine_equality_and_its_failure():
    worst = 0.0
    rng = np.random.default_rng(31)
    for a in (0.5, 3.0):
        for name, g in builtin_generators().items():
            mean = QuasiArithmeticMean(g)
            other = QuasiArithmeticMean(g.affine(a, 0.9))
            for _ in range(100):
                xs = [float(v) for v in g.domain.sample(rng, 3)]
                worst = max(worst, abs(mean(xs) - other(xs)))
        for name, system in builtin_systems().items():
            offsets = [0.3 * i - 0.5 for i in range(system.n)]
            mean = GeneralizedQuasiArithmeticMean(system)
            other = GeneralizedQuasiArithmeticMean(system.affine(a, offsets))
            for _ in range(100):
                xs = [float(v) for v in system.domain.sample(rng, system.n)]
                worst = max(worst, abs(mean(xs) - other(xs)))
    affine_ok = worst <= 1e-8

    rep = qam_equality_check(builtin_generators()["x"], builtin_generators()["exp(x)"])
    detection_ok = (
        not rep.equal and rep.max_value_gap > 1e-3 and rep.fit_residuals[0] > 0.1
    )
    ok = affine_ok and detection_ok
    _line(
        "C5 affine-transformed generators give the same mean; x vs exp(x) split",
        ok,
        f"max affine gap {worst:.3g}, exp gap {rep.max_value_gap:.3g}",
    )
    assert affine_ok, worst
    assert detection_ok, rep


def test_c6_lehmer_refuted_reproducibly():
    first = characterize(lehmer_mean(I010))
    second = characterize(lehmer_mean(I010))
    ok = (
        not first.consistent
        and "generalized-bisymmetry" in first.failed_conditions
        and first.witness_matrix is not None
        and first.witness_residual > 1e-4
        and first.trials_run <= 1000
        and first.witness_matrix == second.witness_matrix
        and first.witness_residual == second.witness_residual
    )
    _line(
        "C6 Lehmer demo mean refuted with a reproducible witness matrix",
        ok,
        f"witness residual {first.witness_residual:.3g}",
    )
    assert ok, first


def test_c7_mean_axioms_and_associativity():
    roster = []
    for name, g in builtin_generators().items():
        roster.append((f"qam[{name}]", QuasiArithmeticMean(g), None))
    for name, system in builtin_systems().items():
        roster.append((f"gqam[{name}]", GeneralizedQuasiArithmeticMean(system), system.n))
    roster.append(("arithmetic", arithmetic_mean(I010), None))
    roster.append(("geometric", geometric_mean(Interval(0.1, 10.0)), None))
    roster.append(("lehmer2", lehmer_mean(I010), None))
    roster.append(("blend0.7", minmax_blend(I010), None))

    axioms_ok = True
    for label, mean, arity in roster:
        rng = np.random.default_rng(41)
        for i in range(500):
            k = arity if arity is not None else 2 + i % 3
            xs = [float(v) for v in mean.domain.sample(rng, k)]
            prop = mean_property_check(mean, xs)
            if not prop.passed or (prop.strict_checked and prop.strict_ok is not True):
                axioms_ok = False
                break
            c = float(mean.domain.sample(rng))
            if not reflexivity_check(mean, c, count=k).passed:
                axioms_ok = False
                break
        if not axioms_ok:
            break

    as_worst = 0.0
    rng = np.random.default_rng(43)
    for name, g in builtin_generators().items():
        for k, m in ((1, 2), (2, 2), (2, 3)):
            for _ in range(30):
                xs = [float(v) for v in g.domain.sample(rng, k)]
                ys = [float(v) for v in g.domain.sample(rng, m)]
                as_worst = max(as_worst, associativity_check(g, xs, ys).residual)
    as_ok = as_worst <= 1e-9
    ok = axioms_ok and as_ok
    _line(
        "C7 mean axioms on 500 inputs per builtin mean; associativity <= 1e-9",
        ok,
        f"associativity worst {as_worst:.3g}",
    )
    assert axioms_ok
    assert as_ok, as_worst


def test_c8_inversion_round_trip():
    worst = 0.0
    for name, g in builtin_generators().items():
        lo, hi = g.domain.grid(2)
        for x in g.domain.grid(256):
            x = float(x)
            err = abs(g.invert_on(g(x), lo, hi) - x) / max(1.0, abs(x))
            worst = max(worst, err)
    ok = worst <= 1e-8
    _line(
        "C8 generator round-trip f^{-1}(f(x)) on 256-point grids",
        ok,
        f"worst relative error {worst:.3g}",
    )
    assert ok, worst


def test_c9_cli_determinism_and_exit_codes(capsys, tmp_path):
    argv = ["--seed", "42", "--format", "json", "verify", "m1"]
    assert main(list(argv)) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(list(argv)) == 0
    second = json.loads(capsys.readouterr().out)
    deterministic = strip_volatile(first) == strip_volatile(second)

    codes_ok = True
    codes_ok &= main(["--gen", "x", "--gen", "2*x", "eval", "1", "2", "3"]) == 2
    codes_ok &= (
        main(["--interval", "0.1,5", "--gen", "x", "--gen", "x^3",
              "--max-iter", "1", "compose", "0.2", "4.8"]) == 3
    )
    missing = tmp_path / "absent" / "report.json"
    codes_ok &= (
        main(["--output", str(missing), "--gen", "x", "eval", "2"]) == 4
    )
    capsys.readouterr()

    ok = deterministic and codes_ok
    _line("C9 CLI determinism under a fixed seed; exit-code contract", ok)
    assert deterministic
    assert codes_ok
