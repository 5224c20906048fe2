"""Numeric kernels, each written once over an evaluator of programs.

The hot loops of this package are scalar: program evaluation inside
bracketed root-finding inside Gauss iteration.  ``_build`` writes every
kernel over an evaluator ``eval_core(code, operands, start, stop, x)``
that is NaN where the program code[start:stop] is not finite at x.  One
family per program kind: DSL tapes on the stack machine of
``tape_evaluator`` (uncompiled, or compiled with numba's ``njit``), and
``CALLABLE``, never compiled, whose program is a tuple of Python bodies,
one slot per member, run by ``eval_callable``.  The bracketed solve is
written once, in ``make_invert``.  One step of a generalized
quasi-arithmetic mean (evaluate f1..fn, sum, invert the sum) is
``gqam_rotated``: ``gqam`` is that step at rotation 0.  Gauss iteration,
with its one stopping rule, is written once in ``make_orbit``:
``cyclic_gauss`` runs it over ``gqam_rotated`` at every rotation 0..n-1,
and ``gauss`` runs the same source uncompiled over the components of any
other mean-type mapping.  ``Generator.program`` and
``GeneratorSystem.program`` pick family and program; tape programs run
``ACTIVE``, selected by the MEANLAB_BACKEND environment variable:

    auto    numba when importable, otherwise the fallback (default)
    numba   require numba, fail at import if missing
    numpy   force the fallback (``python`` is an alias)

An unknown value is reported on stderr and treated as ``auto``.

Kernels never raise.  Scalar evaluation signals trouble with NaN and the
solvers return status codes.  The callers turn those into package
exceptions, through ``Generator._invert_error``: ``Generator.invert_on``
for one solve and ``means.gqam_eval`` for one mean.  ``gauss.gauss_iterate``
adds only the Gauss budget: a fused orbit whose step failed replays that
step through the mapping's components, so it raises what
``means.gqam_eval`` raises.

Status codes shared by the solvers:

    0  success
    1  target not bracketed by the endpoint values
    2  iteration budget exhausted
    3  non-finite evaluation
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .dsl.ast import power, _EXP_MAX
from .dsl.compiler import (
    OP_ADD,
    OP_CONST,
    OP_DIV,
    OP_EXP,
    OP_LOG,
    OP_MUL,
    OP_NEG,
    OP_POW,
    OP_SQRT,
    OP_SUB,
    OP_X,
)

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False

STATUS_OK = 0
STATUS_RANGE = 1
STATUS_BUDGET = 2
STATUS_NONFINITE = 3

# relative gap at which a Gauss orbit has closed as far as float64 allows
GAP_FLOOR = 4.0 * sys.float_info.epsilon


class KernelSet(NamedTuple):
    name: str
    eval_one: callable
    eval_grid: callable
    invert: callable
    gqam: callable
    cyclic_gauss: callable


def make_invert(evaluate, jit=lambda f: f):
    """The bracketed solve for g(x) = y on [lo, hi], g increasing, over
    an evaluator ``evaluate(code, operands, start, stop, x)`` that
    returns NaN where g is not finite.

    Illinois-damped secant steps (Dowell & Jarratt, BIT 11, 1971) on the
    bracket with bisection as the fallback; stops on the residual test
    |g(x)-y| <= tol*max(|y|, min(1, max(|g(lo)|, |g(hi)|))), relative to
    g's values on the bracket even below 1.  At an endpoint, or between
    adjacent floats, |g(x)-y| <= tol*max(1,|y|) suffices: cancellation in
    g near a zero crossing can leave no x that passes the relative test.
    Returns (x, status).
    """

    @jit
    def invert_core(code, operands, start, stop, y, lo, hi, tol, budget):
        glo = evaluate(code, operands, start, stop, lo)
        ghi = evaluate(code, operands, start, stop, hi)
        if math.isnan(glo) or math.isnan(ghi):
            return np.nan, STATUS_NONFINITE
        scale = tol * max(abs(y), min(1.0, max(abs(glo), abs(ghi))))
        loose = tol * max(1.0, abs(y))
        if y <= glo:
            if glo - y <= loose:
                return lo, STATUS_OK
            return np.nan, STATUS_RANGE
        if y >= ghi:
            if y - ghi <= loose:
                return hi, STATUS_OK
            return np.nan, STATUS_RANGE
        a = lo
        b = hi
        fa = glo - y
        fb = ghi - y
        side = 0
        for _ in range(budget):
            denom = fb - fa
            if denom != 0.0:
                xm = a - fa * (b - a) / denom
            else:
                xm = 0.5 * (a + b)
            if not (a < xm < b):
                xm = 0.5 * (a + b)
            if not (a < xm < b):
                # bracket has collapsed to adjacent floats
                if -fa <= fb:
                    if -fa <= loose:
                        return a, STATUS_OK
                else:
                    if fb <= loose:
                        return b, STATUS_OK
                return 0.5 * (a + b), STATUS_BUDGET
            fm = evaluate(code, operands, start, stop, xm)
            if math.isnan(fm):
                return np.nan, STATUS_NONFINITE
            fm -= y
            if abs(fm) <= scale:
                return xm, STATUS_OK
            if fm < 0.0:
                a = xm
                fa = fm
                if side == -1:
                    fb *= 0.5
                side = -1
            else:
                b = xm
                fb = fm
                if side == 1:
                    fa *= 0.5
                side = 1
        return 0.5 * (a + b), STATUS_BUDGET

    return invert_core


def span(xs):
    """(min, max) of a nonempty float64 vector."""
    mn = xs[0]
    mx = xs[0]
    for j in range(1, xs.shape[0]):
        if xs[j] < mn:
            mn = xs[j]
        if xs[j] > mx:
            mx = xs[j]
    return mn, mx


def make_orbit(step, jit=lambda f: f):
    """Gauss iteration of a mapping whose ``step(ctx, x, mn, mx, out)
    -> status`` writes the image of x, of span [mn, mx], into out, until
    the gap mx - mn is at most max(tol, GAP_FLOOR * max(|mn|, |mx|)),
    with tol = gap_tol * min(1, max|x0|) scaled once by the start vector
    (by the current iterate, an orbit whose limit is 0 would never stop).
    Fills iterates/gaps from the starting vector on and returns
    (iterations_used, status); a failed step ends the orbit with its status.
    """
    sp = jit(span)

    @jit
    def orbit(ctx, x0, gap_tol, max_iter, iterates, gaps):
        x = x0.copy()
        out = np.empty_like(x)
        mn, mx = sp(x)
        tol = gap_tol * min(1.0, max(abs(mn), abs(mx)))
        used = 0
        while True:
            iterates[used, :] = x
            mn, mx = sp(x)
            gaps[used] = mx - mn
            if not (mx - mn > max(tol, GAP_FLOOR * max(abs(mn), abs(mx)))):
                return used, STATUS_OK
            if used >= max_iter:
                return used, STATUS_BUDGET
            st = step(ctx, x, mn, mx, out)
            if st != STATUS_OK:
                return used, st
            x, out = out, x
            used += 1

    return orbit


def tape_evaluator(jit=lambda f: f):
    """The stack machine over DSL tapes, evaluator of the tape families."""
    pw = jit(power)

    @jit
    def eval_tape(code, operands, start, stop, x):
        stack = np.empty(stop - start, dtype=np.float64)
        top = -1
        for k in range(start, stop):
            op = code[k]
            if op == OP_CONST:
                top += 1
                stack[top] = operands[k]
            elif op == OP_X:
                top += 1
                stack[top] = x
            elif op == OP_NEG:
                stack[top] = -stack[top]
            elif op == OP_EXP:
                v = stack[top]
                if v > _EXP_MAX:
                    return np.nan
                stack[top] = math.exp(v)
            elif op == OP_LOG:
                v = stack[top]
                if v <= 0.0:
                    return np.nan
                stack[top] = math.log(v)
            elif op == OP_SQRT:
                v = stack[top]
                if v < 0.0:
                    return np.nan
                stack[top] = math.sqrt(v)
            else:
                b = stack[top]
                top -= 1
                a = stack[top]
                if op == OP_ADD:
                    r = a + b
                elif op == OP_SUB:
                    r = a - b
                elif op == OP_MUL:
                    r = a * b
                elif op == OP_DIV:
                    if b == 0.0:
                        return np.nan
                    r = a / b
                else:
                    r = pw(a, b)
                if not math.isfinite(r):
                    return np.nan
                stack[top] = r
        v = stack[0]
        if not math.isfinite(v):
            return np.nan
        return v

    return eval_tape


def eval_callable(bodies, _operands, start, _stop, x):
    """The evaluator of ``CALLABLE``: calls the Python body in slot
    ``start`` on a float; failures and non-finite values are NaN."""
    try:
        v = float(bodies[start](float(x)))
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan
    return v if math.isfinite(v) else math.nan


def _build(jit, name: str, eval_core) -> KernelSet:
    """The kernel family over ``eval_core``, compiled with ``jit`` (which
    must also have compiled ``eval_core``)."""

    @jit
    def eval_one(code, operands, x):
        return eval_core(code, operands, 0, len(code), x)

    @jit
    def eval_grid(code, operands, xs):
        out = np.empty(xs.shape[0], dtype=np.float64)
        for i in range(xs.shape[0]):
            out[i] = eval_core(code, operands, 0, len(code), xs[i])
        return out

    invert_core = make_invert(eval_core, jit)
    sp = jit(span)

    @jit
    def invert(code, operands, y, lo, hi, tol, budget):
        return invert_core(code, operands, 0, len(code), y, lo, hi, tol, budget)

    @jit
    def gqam_rotated(codes, operands, offsets, sum_code, sum_operands, xs,
                     shift, lo, hi, tol, budget):
        # One rotated mean, the step kernel of both gqam and cyclic_gauss:
        # (f1+...+fn)^{-1}(f1(y1)+...+fn(yn)) solved on [lo, hi], where
        # y = xs rotated by ``shift`` (y_j = xs[(j - shift) mod n]).
        n = offsets.shape[0] - 1
        s = 0.0
        for j in range(n):
            v = eval_core(codes, operands, offsets[j], offsets[j + 1], xs[(j - shift) % n])
            if math.isnan(v):
                return np.nan, STATUS_NONFINITE
            s += v
        return invert_core(sum_code, sum_operands, 0, len(sum_code), s, lo, hi, tol, budget)

    @jit
    def gqam(codes, operands, offsets, sum_code, sum_operands, xs, tol, budget):
        # the mean property brackets the result by [min xs, max xs]
        mn, mx = sp(xs)
        return gqam_rotated(codes, operands, offsets, sum_code, sum_operands, xs,
                            0, mn, mx, tol, budget)

    @jit
    def rotated_means(ctx, x, mn, mx, out):
        # component i of the cyclic mapping is gqam_rotated at shift i
        codes, operands, offsets, sum_code, sum_operands, tol, budget = ctx
        for i in range(x.shape[0]):
            val, st = gqam_rotated(codes, operands, offsets, sum_code, sum_operands,
                                   x, i, mn, mx, tol, budget)
            if st != STATUS_OK:
                return st
            out[i] = val
        return STATUS_OK

    orbit = make_orbit(rotated_means, jit)

    @jit
    def cyclic_gauss(codes, operands, offsets, sum_code, sum_operands, x0,
                     gap_tol, inv_tol, inv_budget, max_iter, iterates, gaps):
        ctx = (codes, operands, offsets, sum_code, sum_operands, inv_tol, inv_budget)
        return orbit(ctx, x0, gap_tol, max_iter, iterates, gaps)

    return KernelSet(
        name=name,
        eval_one=eval_one,
        eval_grid=eval_grid,
        invert=invert,
        gqam=gqam,
        cyclic_gauss=cyclic_gauss,
    )


def _resolve_backend() -> str:
    env = os.environ.get("MEANLAB_BACKEND", "auto").strip().lower()
    if env == "numba":
        if not HAS_NUMBA:
            raise ImportError("MEANLAB_BACKEND=numba but numba is not importable")
        return "numba"
    if env in ("numpy", "python"):
        return "numpy"
    if env not in ("", "auto"):
        print(f"meanlab: unknown MEANLAB_BACKEND value {env!r}, using auto",
              file=sys.stderr)
    return "numba" if HAS_NUMBA else "numpy"


_PY_KERNELS = _build(lambda f: f, "numpy", tape_evaluator())
_njit = numba.njit(cache=False, fastmath=False, nogil=True) if HAS_NUMBA else None
_NB_KERNELS = _build(_njit, "numba", tape_evaluator(_njit)) if HAS_NUMBA else None
# never compiled: the bodies are arbitrary Python
CALLABLE = _build(lambda f: f, "callable", eval_callable)

BACKEND = _resolve_backend()
ACTIVE = _NB_KERNELS if BACKEND == "numba" else _PY_KERNELS


def active_backend() -> str:
    """Name of the backend selected at import time."""
    return BACKEND


def kernels_for(name: str) -> KernelSet:
    """Fetch a specific kernel family, independent of the env selection.

    Used by the backend-agreement tests and the benchmark; regular code
    goes through the module-level ACTIVE set.
    """
    if name == "numpy":
        return _PY_KERNELS
    if name == "numba":
        if _NB_KERNELS is None:
            raise ImportError("numba backend requested but numba is not importable")
        return _NB_KERNELS
    raise ValueError(f"unknown backend {name!r}")


def available_backends() -> tuple[str, ...]:
    return ("numpy", "numba") if HAS_NUMBA else ("numpy",)


def warm_up(kernels: KernelSet | None = None):
    """Force compilation of every kernel in the family.

    The numba family compiles lazily on first call; timing-sensitive
    callers run this once beforehand so measurements exclude JIT cost.
    """
    from .dsl.compiler import Tape, pack_tapes, tape_sum

    ks = kernels if kernels is not None else ACTIVE
    t = Tape(np.asarray([OP_X, OP_CONST, OP_MUL], dtype=np.int64),
             np.asarray([0.0, 2.0, 0.0], dtype=np.float64))
    ident = Tape(np.asarray([OP_X], dtype=np.int64), np.asarray([0.0], dtype=np.float64))
    codes, operands, offsets = pack_tapes([ident, t])
    total = tape_sum([ident, t])
    ks.eval_one(t.code, t.operands, 1.0)
    ks.eval_grid(t.code, t.operands, np.asarray([1.0, 2.0]))
    ks.invert(t.code, t.operands, 2.0, 0.5, 4.0, 1e-12, 200)
    ks.gqam(codes, operands, offsets, total.code, total.operands,
            np.asarray([1.0, 2.0]), 1e-12, 200)
    iterates = np.empty((8, 2), dtype=np.float64)
    gaps = np.empty(8, dtype=np.float64)
    ks.cyclic_gauss(codes, operands, offsets, total.code, total.operands,
                    np.asarray([1.0, 2.0]), 1e-10, 1e-12, 200, 7, iterates, gaps)
