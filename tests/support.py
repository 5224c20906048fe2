"""What the tests share: the reference semantics of expression trees,
the reference Gauss step, and the comparison of two reports outside
their volatile keys.

``eval_expr`` is a direct recursive walk of a tree.  The Python bodies
``compile_expr`` makes of trees are tested against it bit for bit.  The walk
computes a tree's nodes in post-order, as ``meanlab.dsl.ast`` defines a
tree's value: a body leaf's value is what the body returns; exp, log,
sqrt, division and ``^`` are NaN outside their guards, and so is any
binary operation whose result is not finite.

``reference_step`` is a system's Gauss step computed from its member
bodies and its sum body, with one ``kernels.invert`` call on the solve
that ``compile_solve`` lowers from the sum body, called as a leaf: the
steps of ``compile_step``, whose member values and sum are inlined, are
tested against it bit for bit, as ``step_bits`` compares them.
"""

import functools
import math
import struct

from meanlab import kernels
from meanlab.dsl.ast import _EXP_MAX, Constant, Expr, Unary, Variable, power
from meanlab.dsl.compiler import compile_solve
from meanlab.errors import EvalError
from meanlab.report import VOLATILE_KEYS


def safe_exp(v: float) -> float:
    if v > _EXP_MAX:
        return math.nan
    return math.exp(v)


def safe_log(v: float) -> float:
    if v <= 0.0:
        return math.nan
    return math.log(v)


def safe_sqrt(v: float) -> float:
    if v < 0.0:
        return math.nan
    return math.sqrt(v)


def safe_div(num: float, den: float) -> float:
    if den == 0.0:
        return math.nan
    return num / den


def eval_expr(expr: Expr, x: float) -> float:
    """Evaluate at a scalar, raising EvalError where the expression is
    not finite."""
    v = _walk(expr, float(x))
    if not math.isfinite(v):
        raise EvalError(f"expression is not finite at x = {x}")
    return v


def _walk(expr: Expr, x: float) -> float:
    if callable(expr):
        return expr(x)
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        return x
    if isinstance(expr, Unary):
        v = _walk(expr.operand, x)
        if expr.op == "neg":
            return -v
        if expr.op == "exp":
            return safe_exp(v)
        if expr.op == "log":
            return safe_log(v)
        return safe_sqrt(v)
    a = _walk(expr.left, x)
    b = _walk(expr.right, x)
    if expr.op == "+":
        r = a + b
    elif expr.op == "-":
        r = a - b
    elif expr.op == "*":
        r = a * b
    elif expr.op == "/":
        r = safe_div(a, b)
    else:
        r = power(a, b)
    return r if math.isfinite(r) else math.nan


# the solves of the bodies used last, each lowered once: compile_solve
# lowers a tree with a body leaf, such as a bare body, afresh on every call
solve_of = functools.lru_cache(maxsize=16)(compile_solve)


def reference_step(bodies, total, x, count=None):
    """The Gauss step of a system at the list of floats x, as (out,
    status), from its member bodies and its sum body ``total``: every
    member at every coordinate, NaN failing the step; the rotated
    targets and F at min x and max x (at its first coordinate) folded
    onto 0.0 in member order, F not finite failing the step; then one
    ``kernels.invert`` call of the sum body's solve for the first
    ``count`` targets (all n by default) on [min x, max x]."""
    n = len(x)
    values = [[b(v) for v in x] for b in bodies]
    if any(v != v for row in values for v in row):
        return None, kernels.STATUS_NONFINITE

    def fold(terms):
        s = 0.0
        for v in terms:
            s += v
        return s

    targets = [fold(values[j][(j - i) % n] for j in range(n)) for i in range(n)]
    mn, mx = min(x), max(x)
    glo, ghi = (fold(values[j][x.index(end)] for j in range(n)) for end in (mn, mx))
    if not (math.isfinite(glo) and math.isfinite(ghi)):
        return None, kernels.STATUS_NONFINITE
    return kernels.invert(solve_of(total), targets[:count or n], mn, mx, glo, ghi)


def step_bits(result):
    """A step's (out, status) with each float of out as its bits, so
    that NaN equals NaN and -0.0 differs from 0.0."""
    out, status = result
    return None if out is None else [struct.pack("<d", v) for v in out], status


def strip_volatile(payload: dict) -> dict:
    """A JSON report without the fields outside the determinism contract."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
