"""Kernel family contracts: both backends must agree bitwise, and the
status codes must classify every failure mode."""

import math
import os

import numpy as np
import pytest

from meanlab import kernels
from meanlab.dsl import compile_expr, parse
from meanlab.dsl.compiler import pack_tapes, tape_sum
from meanlab.kernels import (
    STATUS_BUDGET,
    STATUS_NONFINITE,
    STATUS_OK,
    STATUS_RANGE,
    available_backends,
    kernels_for,
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


def run_cyclic(ks, sources, x0, gap_tol=1e-10, max_iter=500):
    codes, operands, offsets, total = packed(*sources)
    n = len(x0)
    iterates = np.empty((max_iter + 1, n), dtype=np.float64)
    gaps = np.empty(max_iter + 1, dtype=np.float64)
    used, status = ks.cyclic_gauss(
        codes, operands, offsets, total.code, total.operands,
        np.asarray(x0, dtype=np.float64), gap_tol, 1e-13, 200, max_iter,
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
