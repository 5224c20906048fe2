"""Kernel family contracts: both backends must agree bitwise, lowered
tapes bit for bit with the stack machine they replace, one fused Gauss
step bit for bit with the rotated means it computes, and the status
codes must classify every failure mode."""

import math
import os
import struct

import numpy as np
import pytest

from meanlab import Generator, GeneratorSystem, Interval, builtin_systems, kernels
from meanlab.dsl import compile_expr, parse
from meanlab.dsl.compiler import pack_tapes, tape_sum
from meanlab.kernels import (
    STATUS_BUDGET,
    STATUS_NONFINITE,
    STATUS_OK,
    STATUS_RANGE,
    available_backends,
    kernels_for,
    lower_tape,
    tape_evaluator,
    warm_up,
)

BACKENDS = available_backends()
needs_both = pytest.mark.skipif(len(BACKENDS) < 2, reason="numba unavailable")


@pytest.fixture(params=BACKENDS)
def ks(request):
    return kernels_for(request.param)


def tape(source):
    return compile_expr(parse(source))


def packed(*sources):
    tapes = [tape(s) for s in sources]
    codes, operands, offsets = pack_tapes(tapes)
    return codes, operands, offsets, tape_sum(tapes)


# --- evaluation -------------------------------------------------------------


EVAL_SOURCES = ["x", "2*x+1", "x^3+x", "log(x)", "exp(x)", "x^2/(1+x)"]


@pytest.mark.parametrize("source", EVAL_SOURCES)
def test_eval_one_matches_grid(ks, source):
    t = tape(source)
    xs = np.linspace(0.1, 5.0, 37)
    grid = ks.eval_grid(t.code, t.operands, xs)
    for x, want in zip(xs, grid):
        assert ks.eval_one(t.code, t.operands, float(x)) == want


@pytest.mark.parametrize(
    "source,x",
    [("log(x)", -1.0), ("log(x)", 0.0), ("sqrt(x)", -4.0), ("1/x", 0.0), ("exp(x)", 1e4)],
)
def test_eval_one_guards_with_nan(ks, source, x):
    t = tape(source)
    assert math.isnan(ks.eval_one(t.code, t.operands, x))


@needs_both
@pytest.mark.parametrize("source", EVAL_SOURCES)
def test_backends_agree_bitwise_on_grids(source):
    t = tape(source)
    xs = np.linspace(0.1, 5.0, 101)
    a = kernels_for("numpy").eval_grid(t.code, t.operands, xs)
    b = kernels_for("numba").eval_grid(t.code, t.operands, xs)
    np.testing.assert_array_equal(a, b)


# every op and guard, overflow into each guard, exp on both sides of its
# cut-off, cancellation to 0 and to -0, and powers with negative bases;
# the inlined power with a literal exponent on every branch: x^3 on both
# sides of its overflow guard (1e102, 1e103), a negative base that falls
# back to power, negated and tiny exponents
LOWERING_SOURCES = [
    "x", "-x", "2.5", "-2.5", "x - -2", "x + 1e300", "x*1e300*1e10", "x*x*x*x", "1/x",
    "x/x/x", "(x - 1)/(x - 1)", "exp(x)", "exp(-x)", "exp(x)/x", "exp(x - 0.5)", "log(x)",
    "log(log(x))", "log(x)*x", "sqrt(x)", "sqrt(x)^3", "x^0.5", "x^-2", "2^x", "x^x",
    "-2*x^3 + x^2", "0*x", "-(0*x)", "x^3", "(x - 1)^3", "x^-0.5", "x^1e-300", "x^-0",
]
# text has no non-finite constants, but affine images can carry them
LOWERING_TAPES = {
    **{source: tape(source) for source in LOWERING_SOURCES},
    "inf*x": tape("x").affine(math.inf, 0.0),
    "x + nan": tape("x").affine(1.0, math.nan),
}
LOWERING_POINTS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
    709.0, 709.5, -709.0, -709.5, 1.0, -1.0, 0.5, 2.5, -3.0, 1e102, 1e103, -1e102, -1e103,
]


def _outcome(evaluate):
    # the value's bits, or the exception the evaluation raised
    try:
        return struct.pack("<d", evaluate())
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("source", LOWERING_TAPES)
def test_lowered_tape_matches_the_stack_machine_bit_for_bit(source):
    t = LOWERING_TAPES[source]
    body = lower_tape(t.code, t.operands)
    machine = tape_evaluator()
    for x in LOWERING_POINTS:
        for arg in (x, np.float64(x)):  # both kinds of float reach the kernels
            want = _outcome(lambda: machine(t.code, t.operands, 0, len(t), arg))
            assert _outcome(lambda: body(arg)) == want, (source, arg)


# --- inversion --------------------------------------------------------------


def test_invert_finds_root(ks):
    t = tape("x^3+x")
    val, status = ks.invert(t.code, t.operands, 10.0, 0.0, 5.0, 1e-12, 200)
    assert status == STATUS_OK
    assert val == pytest.approx(2.0, abs=1e-9)


def test_invert_endpoint_fast_path(ks):
    t = tape("x")
    val, status = ks.invert(t.code, t.operands, 0.0, 0.0, 10.0, 1e-12, 200)
    assert status == STATUS_OK and val == 0.0


def test_invert_reports_range(ks):
    t = tape("x")
    val, status = ks.invert(t.code, t.operands, -5.0, 0.0, 10.0, 1e-12, 200)
    assert status == STATUS_RANGE
    assert math.isnan(val)


def test_invert_reports_budget(ks):
    t = tape("x")
    val, status = ks.invert(t.code, t.operands, 5.0, 0.0, 10.0, 0.0, 0)
    assert status == STATUS_BUDGET
    assert 0.0 <= val <= 10.0  # midpoint of the last bracket


def test_invert_reports_nonfinite(ks):
    t = tape("log(x)")
    val, status = ks.invert(t.code, t.operands, 0.5, -1.0, 10.0, 1e-12, 200)
    assert status == STATUS_NONFINITE
    assert math.isnan(val)


def test_invert_is_relative_below_one(ks):
    # the mean of 1e-4 and 5e-4 under x^3: every value is far below 1
    from mpmath import cbrt, mp, mpf

    mp.dps = 40
    t = tape("x^3")
    y = (1e-4**3 + 5e-4**3) / 2
    val, status = ks.invert(t.code, t.operands, y, 1e-4, 5e-4, 1e-12, 200)
    assert status == STATUS_OK
    assert abs(val / cbrt(mpf(y)) - 1) <= 1e-9


def test_invert_accepts_float_resolution_at_a_zero_crossing(ks):
    # 3*log(x) crosses 0 inside a bracket a few hundred ulp wide, where
    # no x reaches a residual relative to the bracket's tiny values
    t = tape("3*log(x)")
    lo, hi = 1.0 - 1e-13, 1.0 + 1e-13
    for y in np.linspace(3 * math.log(lo), 3 * math.log(hi), 41):
        val, status = ks.invert(t.code, t.operands, float(y), lo, hi, 1e-12, 200)
        assert status == STATUS_OK
        assert lo <= val <= hi


@needs_both
def test_backends_agree_on_inversion():
    t = tape("exp(x)+x")
    for y in np.linspace(1.2, 140.0, 23):
        a = kernels_for("numpy").invert(t.code, t.operands, float(y), 0.0, 5.0, 1e-13, 200)
        b = kernels_for("numba").invert(t.code, t.operands, float(y), 0.0, 5.0, 1e-13, 200)
        assert a == b


# --- generalized quasi-arithmetic combination --------------------------------


def test_gqam_weighted_pair_closed_form(ks):
    codes, operands, offsets, total = packed("x", "2*x")
    val, status = ks.gqam(
        codes, operands, offsets, total.code, total.operands,
        np.asarray([1.0, 4.0]), 1e-12, 200,
    )
    assert status == STATUS_OK
    assert val == pytest.approx(3.0, abs=1e-9)  # (x1 + 2 x2) / 3


def test_gqam_flags_domain_violation(ks):
    codes, operands, offsets, total = packed("log(x)", "x")
    val, status = ks.gqam(
        codes, operands, offsets, total.code, total.operands,
        np.asarray([-1.0, 2.0]), 1e-12, 200,
    )
    assert status == STATUS_NONFINITE
    assert math.isnan(val)


@needs_both
def test_backends_agree_on_gqam():
    codes, operands, offsets, total = packed("x", "x^2", "x^3")
    rng = np.random.default_rng(5)
    for _ in range(50):
        xs = rng.uniform(0.2, 4.8, 3)
        a = kernels_for("numpy").gqam(
            codes, operands, offsets, total.code, total.operands, xs, 1e-13, 200
        )
        b = kernels_for("numba").gqam(
            codes, operands, offsets, total.code, total.operands, xs, 1e-13, 200
        )
        assert a == b


# --- fused Gauss iteration ----------------------------------------------------


def lowered(*sources):
    """The system program of the Python family: each member's tape and
    the sum tape lowered to bodies."""
    tapes = [tape(s) for s in sources]
    total = tape_sum(tapes)
    return (tuple(lower_tape(t.code, t.operands) for t in tapes), None,
            np.arange(len(tapes) + 1), (lower_tape(total.code, total.operands),), None)


def run_cyclic(ks, sources, x0, gap_tol=1e-10, max_iter=500, lower=False):
    if lower:
        program = lowered(*sources)
    else:
        codes, operands, offsets, total = packed(*sources)
        program = (codes, operands, offsets, total.code, total.operands)
    n = len(x0)
    iterates = np.empty((max_iter + 1, n), dtype=np.float64)
    gaps = np.empty(max_iter + 1, dtype=np.float64)
    used, status = ks.cyclic_gauss(
        *program, np.asarray(x0, dtype=np.float64), gap_tol, 1e-13, 200, max_iter,
        iterates, gaps,
    )
    return used, status, iterates, gaps


def test_cyclic_gauss_conserves_weighted_sum(ks):
    used, status, iterates, gaps = run_cyclic(ks, ["x", "2*x"], [0.0, 3.0])
    assert status == STATUS_OK
    final = iterates[used]
    assert gaps[used] <= 1e-10
    # (x + 2y)/3 and its rotation preserve x+y, so the limit is 1.5
    assert 0.5 * (final[0] + final[1]) == pytest.approx(1.5, abs=1e-9)


def test_cyclic_gauss_gaps_strictly_fall(ks):
    used, status, iterates, gaps = run_cyclic(ks, ["x", "x^3"], [0.2, 4.8], max_iter=2000)
    assert status == STATUS_OK
    assert all(gaps[i + 1] < gaps[i] for i in range(used))


def test_cyclic_gauss_budget_status(ks):
    used, status, iterates, gaps = run_cyclic(ks, ["x", "x^3"], [0.2, 4.8], max_iter=0)
    assert (used, status) == (0, STATUS_BUDGET)
    assert gaps[0] == pytest.approx(4.6)
    np.testing.assert_array_equal(iterates[0], [0.2, 4.8])


@needs_both
def test_backends_agree_on_cyclic_gauss():
    a = run_cyclic(kernels_for("numpy"), ["x", "x^2", "x^3"], [0.3, 2.0, 4.5], max_iter=2000)
    b = run_cyclic(kernels_for("numba"), ["x", "x^2", "x^3"], [0.3, 2.0, 4.5], max_iter=2000)
    assert (a[0], a[1]) == (b[0], b[1])
    np.testing.assert_array_equal(a[2][: a[0] + 1], b[2][: b[0] + 1])
    np.testing.assert_array_equal(a[3][: a[0] + 1], b[3][: b[0] + 1])


@pytest.mark.parametrize("sources,x0", [
    (["x", "x^3"], [0.2, 4.8]),
    (["x", "x^2", "x^3"], [0.3, 2.0, 4.5]),
    (["x^1.1", "x^1.2"], [1.5e6, 9.5e6]),
])
def test_lowered_family_runs_the_same_orbits_as_the_stack_machine(sources, x0):
    a = run_cyclic(kernels_for("numpy"), sources, x0, max_iter=2000)
    b = run_cyclic(kernels.PYTHON, sources, x0, max_iter=2000, lower=True)
    assert a[1] == STATUS_OK
    assert (a[0], a[1]) == (b[0], b[1])
    np.testing.assert_array_equal(a[2][: a[0] + 1], b[2][: b[0] + 1])
    np.testing.assert_array_equal(a[3][: a[0] + 1], b[3][: b[0] + 1])


def mixed_system():
    # a callable member beside a tape member: bodies on the Python family
    dom = Interval(0.1, 5.0)
    return GeneratorSystem([Generator.from_callable(lambda x: x**3 + x, dom, label="cube"),
                            Generator.from_expression("x^2", dom)])


def on_family(family, sources):
    """(kernels, system program) of the stack machine or the lowered family."""
    if family == "lowered":
        return kernels.PYTHON, lowered(*sources)
    codes, operands, offsets, total = packed(*sources)
    return kernels_for("numpy"), (codes, operands, offsets, total.code, total.operands)


def one_step(ks, program, x):
    iterates = np.empty((2, len(x)), dtype=np.float64)
    gaps = np.empty(2, dtype=np.float64)
    used, status = ks.cyclic_gauss(*program, np.asarray(x, dtype=np.float64), 0.0, 1e-13,
                                   200, 1, iterates, gaps)
    return used, status, iterates[1].tolist()


def assert_step_is_the_rotated_means(ks, program, x):
    used, status, step = one_step(ks, program, x)
    assert (used, status) == (1, STATUS_BUDGET)
    means = [ks.gqam(*program, np.roll(x, i), 1e-13, 200) for i in range(len(x))]
    assert [st for _, st in means] == [STATUS_OK] * len(x)
    assert step == [val for val, _ in means], x


@pytest.mark.parametrize("family", ["stack machine", "lowered"])
@pytest.mark.parametrize("sources,interval", [
    (["x", "x^3"], (0.1, 5.0)),
    (["x", "x^2", "x^3"], (0.1, 5.0)),
    (["log(x)", "x"], (0.1, 10.0)),
    (["exp(x)", "x"], (0.0, 3.0)),
    (["x^1.1", "x^1.2"], (1e6, 1e7)),
])
def test_one_fused_step_is_the_rotated_means_bit_for_bit(family, sources, interval):
    # the step reads its targets and the shared F(min), F(max) off one
    # matrix of member values; gqam evaluates them its own way
    ks, program = on_family(family, sources)
    rng = np.random.default_rng(11)
    for _ in range(25):
        assert_step_is_the_rotated_means(ks, program, rng.uniform(*interval, len(sources)))


def test_one_fused_step_of_a_mixed_system_is_the_rotated_means():
    ks, *program = mixed_system().program()
    rng = np.random.default_rng(12)
    for _ in range(25):
        assert_step_is_the_rotated_means(ks, program, rng.uniform(0.1, 5.0, 2))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("family", ["stack machine", "lowered"])
@pytest.mark.parametrize("sources,x", [
    (["log(x)", "x"], [2.0, -1.0]),  # a member is not finite
    (["x*1e308", "x*1e308"], [0.5, 1.5]),  # members are, their sum at max x is not
])
def test_a_fused_step_fails_where_a_member_or_the_sum_is_not_finite(family, sources, x):
    ks, program = on_family(family, sources)
    used, status, _ = one_step(ks, program, x)
    assert (used, status) == (0, STATUS_NONFINITE)


# points from +-1e-300 to +-1e300, signed zeros, infinities and NaN
FOLD_POINTS = [sign * 10.0**e for e in range(-300, 301, 20) for sign in (1.0, -1.0)] + [
    0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, 2.5, 709.5, -709.5]


@pytest.mark.parametrize("name", [*builtin_systems(), "mixed"])
def test_sum_body_is_the_fold_of_the_member_bodies(name):
    # what the fused step relies on to read F off its member matrix:
    # F(x) == 0.0 + f1(x) + ... + fn(x), NaN exactly where that is not finite
    system = mixed_system() if name == "mixed" else builtin_systems()[name]
    pairs = [([g.body() for g in system], system.sum_generator().body())]
    if system.is_tape_backed:  # and so on the stack machine
        machine = kernels_for("numpy")

        def run(t):
            return lambda x: machine.eval_one(t.code, t.operands, x)

        pairs.append(([run(g.tape) for g in system], run(system.sum_generator().tape)))
    for members, total in pairs:
        for x in FOLD_POINTS:
            fold = 0.0
            for body in members:
                fold += body(x)
            if math.isfinite(fold):
                assert total(x) == fold, (name, x)
            else:
                assert math.isnan(total(x)), (name, x)


# --- backend selection ---------------------------------------------------------


def test_available_backends_always_has_numpy():
    assert "numpy" in BACKENDS
    if kernels.HAS_NUMBA:
        assert BACKENDS == ("numpy", "numba")


def test_active_matches_selection():
    assert kernels.ACTIVE.name == kernels.active_backend()
    assert kernels.active_backend() in BACKENDS


def test_kernels_for_rejects_unknown_name():
    with pytest.raises(ValueError):
        kernels_for("fortran")


def test_kernels_for_numba_without_numba(monkeypatch):
    monkeypatch.setattr(kernels, "_NB_KERNELS", None)
    with pytest.raises(ImportError):
        kernels_for("numba")


@pytest.mark.parametrize(
    "value,expected",
    [("numpy", "numpy"), ("python", "numpy"), ("NumPy", "numpy"), (" numpy ", "numpy")],
)
def test_resolve_backend_numpy_spellings(monkeypatch, value, expected):
    monkeypatch.setenv("MEANLAB_BACKEND", value)
    assert kernels._resolve_backend() == expected


def test_resolve_backend_auto(monkeypatch):
    monkeypatch.setenv("MEANLAB_BACKEND", "auto")
    want = "numba" if kernels.HAS_NUMBA else "numpy"
    assert kernels._resolve_backend() == want
    monkeypatch.delenv("MEANLAB_BACKEND")
    assert kernels._resolve_backend() == want


def test_resolve_backend_unknown_falls_back_to_auto(monkeypatch, capsys):
    monkeypatch.setenv("MEANLAB_BACKEND", "cuda")
    want = "numba" if kernels.HAS_NUMBA else "numpy"
    assert kernels._resolve_backend() == want
    assert capsys.readouterr().err == "meanlab: unknown MEANLAB_BACKEND value 'cuda', using auto\n"


def test_resolve_backend_numba_missing(monkeypatch):
    monkeypatch.setenv("MEANLAB_BACKEND", "numba")
    monkeypatch.setattr(kernels, "HAS_NUMBA", False)
    with pytest.raises(ImportError):
        kernels._resolve_backend()


def test_warm_up_compiles_each_family():
    for name in BACKENDS:
        warm_up(kernels_for(name))
    warm_up()  # default family


def test_env_flag_reaches_import(tmp_path):
    # subprocess import honors the flag end to end
    import subprocess
    import sys

    env = dict(os.environ, MEANLAB_BACKEND="numpy")
    out = subprocess.run(
        [sys.executable, "-c", "import meanlab; print(meanlab.kernels.active_backend())"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "numpy"
