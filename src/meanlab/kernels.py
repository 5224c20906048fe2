"""Numeric kernels, each written once over an evaluator of programs.

The hot loops of this package are scalar: program evaluation inside
bracketed root-finding inside Gauss iteration.  ``_build`` writes every
kernel over an evaluator ``eval_core(code, operands, start, stop, x)``
that is NaN where the program code[start:stop] is not finite at x, and
each kernel converts its numpy inputs to floats once per call.  The
families:

    numba   DSL tapes on the stack machine of ``tape_evaluator``,
            compiled with numba's ``njit``
    PYTHON  Python functions of x, never compiled: DSL tapes lowered
            once by ``lower_tape`` to straight-line Python, and user
            callables wrapped once by ``guard``; its program is a tuple
            of bodies, one slot per member, and ``eval_body`` calls the
            body in a slot.  A body returns a float, NaN where its member
            is not finite: it is guarded when it is made, not per call.

The stack machine also runs uncompiled, as ``kernels_for("numpy")``: it
is the source numba compiles and the reference the lowered bodies are
tested against, bit for bit.

The bracketed solve is written once, in ``make_invert``; its callers
evaluate the bracket's endpoints.  ``gqam`` is one generalized
quasi-arithmetic mean: evaluate f1..fn, sum, invert the sum
F = f1+...+fn.  Gauss iteration, with its one stopping rule, is written
once in ``make_orbit``: ``cyclic_gauss`` runs it over a fused step that
computes the n rotated means of the cyclic mapping from one matrix of
member values f_j(x_k), evaluated once per step.  Each mean's target is
a fold of that matrix, and so are F(min x) and F(max x), the values at
the bracket all n solves share: ``tape_sum`` makes F's program the left
fold of the members', so the step gives what ``gqam`` gives on each
rotation, bit for bit, and fails (``STATUS_NONFINITE``) where a member
value or one of those two folds is not finite.  ``gauss`` runs ``make_orbit`` uncompiled over the
components of any other mean-type mapping.  ``Generator.program`` and
``GeneratorSystem.program`` pick family and program: tape arrays on the
numba family when it is the backend and every member has a tape, bodies
on ``PYTHON`` otherwise.  ``ACTIVE`` is the numba family or ``PYTHON``,
selected by the MEANLAB_BACKEND environment variable:

    auto    numba when importable, otherwise PYTHON (default)
    numba   require numba, fail at import if missing
    numpy   force PYTHON (``python`` is an alias)

An unknown value is reported on stderr and treated as ``auto``.

Kernels never raise, save for a ``TypeError`` from calling a body of
the wrong arity.  Scalar evaluation signals trouble with NaN and the
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
import warnings
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

# The uncompiled stack machine, ``power`` included, computes on numpy
# scalars, and so does a lowered body called on one; numpy warns on
# overflow, but the NaN they return is the signal.
warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning,
                        r"meanlab\.(kernels|dsl\.ast)$")


class KernelSet(NamedTuple):
    name: str
    eval_one: callable
    eval_grid: callable
    invert: callable
    gqam: callable
    cyclic_gauss: callable


def make_invert(evaluate, jit=lambda f: f):
    """The bracketed solve for g(x) = y on [lo, hi], g increasing, given
    the endpoint values glo = g(lo) and ghi = g(hi) (NaN where g is not
    finite) and an evaluator ``evaluate(code, operands, start, stop, x)``
    of g inside the bracket that returns NaN where g is not finite.

    Illinois-damped secant steps (Dowell & Jarratt, BIT 11, 1971) on the
    bracket with bisection as the fallback; stops on the residual test
    |g(x)-y| <= tol*max(|y|, min(1, max(|g(lo)|, |g(hi)|))), relative to
    g's values on the bracket even below 1.  At an endpoint, or between
    adjacent floats, |g(x)-y| <= tol*max(1,|y|) suffices: cancellation in
    g near a zero crossing can leave no x that passes the relative test.
    Returns (x, status).  The callers evaluate the endpoints: ``invert``
    and ``gqam`` on g itself, the Gauss step once for all its solves.
    """

    @jit
    def invert_core(code, operands, start, stop, y, lo, hi, glo, ghi, tol, budget):
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
    """(min, max) of a nonempty float64 vector, as floats: the solves and
    the stopping test of ``PYTHON`` then compute on Python floats, not
    numpy scalars (under numba the conversion is a no-op)."""
    mn = float(xs[0])
    mx = mn
    for j in range(1, xs.shape[0]):
        v = float(xs[j])
        if v < mn:
            mn = v
        if v > mx:
            mx = v
    return mn, mx


def scaled_stop(gap_tol, mn, mx):
    """The orbit's gap tolerance for a start vector of span [mn, mx]:
    gap_tol * min(1, max|x0|), relative below 1."""
    return gap_tol * min(1.0, max(abs(mn), abs(mx)))


def make_orbit(step, jit=lambda f: f):
    """Gauss iteration of a mapping whose ``step(ctx, x, mn, mx, out)
    -> status`` writes the image of x, of span [mn, mx], into out, until
    the gap mx - mn is at most max(tol, GAP_FLOOR * max(|mn|, |mx|)),
    with tol = ``scaled_stop`` of the start vector, computed once (by the
    current iterate, an orbit whose limit is 0 would never stop).
    Fills iterates/gaps from the starting vector on and returns
    (iterations_used, status); a failed step ends the orbit with its status.
    """
    sp = jit(span)
    stop_of = jit(scaled_stop)

    @jit
    def orbit(ctx, x0, gap_tol, max_iter, iterates, gaps):
        x = x0.copy()
        out = np.empty_like(x)
        mn, mx = sp(x)
        tol = stop_of(gap_tol, mn, mx)
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
    """The stack machine over DSL tapes: the evaluator numba compiles,
    and uncompiled the reference of ``lower_tape``."""
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


_GUARDED_UNARY = {OP_EXP: (f"> {_EXP_MAX!r}", "exp"), OP_LOG: ("<= 0.0", "log"),
                  OP_SQRT: ("< 0.0", "sqrt")}
_BINARY_SYMBOL = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*", OP_DIV: "/"}


def lower_tape(code, operands):
    """The tape as a straight-line Python function of x: the ops of
    ``tape_evaluator`` in the same order, with the same guards, on named
    temporaries instead of a stack, so it returns the value the stack
    machine returns, NaN where that is NaN.  Finite constants become
    literals, in parentheses, and a negated literal is one too.  A power
    with a literal exponent runs the positive-base branch of ``power``
    inline and calls ``power`` for every other base.  The final finite
    test is left out where the last op has just made it."""
    names = {"__name__": __name__, "isfinite": math.isfinite, "nan": math.nan,
             "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "pow": math.pow,
             "power": power}
    lines = ["def body(x):"]
    stack = []
    checked = None  # the last binary result, tested finite where it is made
    for k, (op, c) in enumerate(zip(code.tolist(), operands.tolist())):
        if op == OP_CONST:
            if math.isfinite(c):
                stack.append(f"({c!r})")
            else:  # affine images may carry one; it has no literal
                names[f"c{k}"] = c
                stack.append(f"c{k}")
            continue
        if op == OP_X:
            stack.append("x")
            continue
        t = f"t{k}"
        if op == OP_NEG and stack[-1].startswith("("):  # a literal: negated exactly
            stack.append(f"({-float(stack.pop()[1:-1])!r})")
            continue
        if op == OP_NEG:
            lines.append(f"    {t} = -{stack.pop()}")
        elif op in _GUARDED_UNARY:
            cut, fn = _GUARDED_UNARY[op]
            a = stack.pop()
            lines += [f"    if {a} {cut}:", "        return nan", f"    {t} = {fn}({a})"]
        else:
            b = stack.pop()
            a = stack.pop()
            if op == OP_DIV:
                lines += [f"    if {b} == 0.0:", "        return nan"]
            if op == OP_POW and b.startswith("("):
                lines += [f"    if {a} > 0.0:",
                          f"        if {b} * log({a}) > {_EXP_MAX!r}:",
                          "            return nan",
                          f"        {t} = pow({a}, {b})",
                          "    else:",
                          f"        {t} = power({a}, {b})"]
            elif op == OP_POW:
                lines.append(f"    {t} = power({a}, {b})")
            else:
                lines.append(f"    {t} = {a} {_BINARY_SYMBOL[op]} {b}")
            lines += [f"    if not isfinite({t}):", "        return nan"]
            checked = t
        stack.append(t)
    if stack[-1] != checked:
        lines += [f"    if not isfinite({stack[-1]}):", "        return nan"]
    lines.append(f"    return {stack[-1]}")
    exec(compile("\n".join(lines), "<meanlab tape>", "exec"), names)
    return names["body"]


def guard(fn):
    """A Python callable as a body of ``PYTHON``: fn(x) as a float, NaN
    where fn raises ``ValueError``, ``OverflowError`` or
    ``ZeroDivisionError`` or returns a value that is not a finite real
    number; a ``TypeError`` from the call itself, such as a callable of
    the wrong arity, propagates."""

    def body(x):
        try:
            v = fn(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            return math.nan
        try:
            v = float(v)
        except (TypeError, ValueError, OverflowError):
            return math.nan
        return v if math.isfinite(v) else math.nan

    return body


def eval_body(bodies, _operands, start, _stop, x):
    """The evaluator of ``PYTHON``: the body in slot ``start`` at x.
    Bodies are guarded when they are made (``lower_tape``, ``guard``),
    so the call returns a float, NaN where the member is not finite."""
    return bodies[start](x)


def _build(jit, name: str, eval_core) -> KernelSet:
    """The kernel family over ``eval_core``, compiled with ``jit`` (which
    must also have compiled ``eval_core``)."""

    @jit
    def eval_one(code, operands, x):
        return eval_core(code, operands, 0, len(code), float(x))

    @jit
    def eval_grid(code, operands, xs):
        out = np.empty(xs.shape[0], dtype=np.float64)
        for i in range(xs.shape[0]):
            out[i] = eval_core(code, operands, 0, len(code), float(xs[i]))
        return out

    invert_core = make_invert(eval_core, jit)
    sp = jit(span)

    @jit
    def invert(code, operands, y, lo, hi, tol, budget):
        stop = len(code)
        lo = float(lo)
        hi = float(hi)
        return invert_core(code, operands, 0, stop, float(y), lo, hi,
                           eval_core(code, operands, 0, stop, lo),
                           eval_core(code, operands, 0, stop, hi), tol, budget)

    @jit
    def gqam(codes, operands, offsets, sum_code, sum_operands, xs, tol, budget):
        # (f1+...+fn)^{-1}(f1(x1)+...+fn(xn)), solved on [min xs, max xs],
        # which brackets it by the mean property
        s = 0.0
        for j in range(offsets.shape[0] - 1):
            v = eval_core(codes, operands, offsets[j], offsets[j + 1], float(xs[j]))
            if math.isnan(v):
                return np.nan, STATUS_NONFINITE
            s += v
        mn, mx = sp(xs)
        return invert(sum_code, sum_operands, s, mn, mx, tol, budget)

    @jit
    def rotated_means(ctx, x, mn, mx, out):
        # Component i of the cyclic mapping is the mean of x rotated by i,
        # F^{-1}(f1(y1)+...+fn(yn)) with y_j = x[(j - i) mod n] and
        # F = f1+...+fn, solved on [mn, mx].  The step evaluates the
        # member matrix f_j(x_k) once, member by member, and folds each
        # value, in member order, into target i = (j - k) mod n and, in
        # the columns where mn and mx sit, into F(mn) and F(mx): the sum
        # program's values there (a zero may differ in sign, which the
        # solve never reads), shared by the n solves.
        codes, operands, offsets, sum_code, sum_operands, tol, budget = ctx
        n = x.shape[0]
        xs = []
        kmn = 0  # where mn and mx sit: their first places, as span finds them
        kmx = 0
        for k in range(n):
            v = float(x[k])
            xs.append(v)
            if v < xs[kmn]:
                kmn = k
            if v > xs[kmx]:
                kmx = k
        ys = [0.0] * n
        glo = 0.0
        ghi = 0.0
        for j in range(n):
            start = offsets[j]
            stop = offsets[j + 1]
            for k in range(n):
                v = eval_core(codes, operands, start, stop, xs[k])
                if math.isnan(v):
                    return STATUS_NONFINITE
                ys[(j - k) % n] += v
                if k == kmn:
                    glo += v
                if k == kmx:
                    ghi += v
        if not (math.isfinite(glo) and math.isfinite(ghi)):
            return STATUS_NONFINITE
        stop = len(sum_code)
        for i in range(n):
            val, st = invert_core(sum_code, sum_operands, 0, stop, ys[i], mn, mx,
                                  glo, ghi, tol, budget)
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


# the stack machine uncompiled: the reference the other families are tested against
_PY_KERNELS = _build(lambda f: f, "numpy", tape_evaluator())
_njit = numba.njit(cache=False, fastmath=False, nogil=True) if HAS_NUMBA else None
_NB_KERNELS = _build(_njit, "numba", tape_evaluator(_njit)) if HAS_NUMBA else None
# never compiled: lowered tapes and user callables, as Python bodies
PYTHON = _build(lambda f: f, "numpy", eval_body)

BACKEND = _resolve_backend()
ACTIVE = _NB_KERNELS if BACKEND == "numba" else PYTHON


def active_backend() -> str:
    """Name of the backend selected at import time."""
    return BACKEND


def kernels_for(name: str) -> KernelSet:
    """Fetch a stack-machine family over tape arrays, independent of the
    env selection: "numpy" runs it uncompiled, "numba" compiled.

    Used by the backend-agreement tests and the benchmark; regular code
    goes through ``Generator.program``, whose family without numba is
    ``PYTHON``, running lowered tapes instead.
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
    """Run every kernel of a family once.

    The numba family compiles lazily on first call; timing-sensitive
    callers run this once beforehand so measurements exclude JIT cost.
    By default the programs are the ones ``Generator.program`` and
    ``GeneratorSystem.program`` choose, run on the family they choose;
    a family from ``kernels_for`` runs the tape arrays.
    """
    from .dsl.compiler import Tape
    from .generator import Generator, GeneratorSystem
    from .interval import Interval

    t = Tape(np.asarray([OP_X, OP_CONST, OP_MUL], dtype=np.int64),
             np.asarray([0.0, 2.0, 0.0], dtype=np.float64))
    ident = Tape(np.asarray([OP_X], dtype=np.int64), np.asarray([0.0], dtype=np.float64))
    dom = Interval(0.5, 4.0)
    g = Generator(dom, tape=t, validate=False)
    system = GeneratorSystem([Generator(dom, tape=ident, validate=False), g])
    if kernels is None:
        ks, code, operands = g.program()
        _, *packed = system.program()
    else:
        codes, ops, offsets, total = system.tape_pack()
        ks, code, operands = kernels, t.code, t.operands
        packed = (codes, ops, offsets, total.code, total.operands)
    ks.eval_one(code, operands, 1.0)
    ks.eval_grid(code, operands, np.asarray([1.0, 2.0]))
    ks.invert(code, operands, 2.0, 0.5, 4.0, 1e-12, 200)
    ks.gqam(*packed, np.asarray([1.0, 2.0]), 1e-12, 200)
    iterates = np.empty((8, 2), dtype=np.float64)
    gaps = np.empty(8, dtype=np.float64)
    ks.cyclic_gauss(*packed, np.asarray([1.0, 2.0]), 1e-10, 1e-12, 200, 7, iterates, gaps)
