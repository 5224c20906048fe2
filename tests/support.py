"""What the tests share: the reference semantics of expression trees,
and the comparison of two reports outside their volatile keys.

``eval_expr`` is a direct recursive walk of a tree.  The Python bodies
``compile_expr`` makes of trees, and the member matrices of
``compile_matrix``, are tested against it bit for bit.  The walk
computes a tree's nodes in post-order, as ``meanlab.dsl.ast`` defines a
tree's value: a body leaf's value is what the body returns; exp, log,
sqrt, division and ``^`` are NaN outside their guards, and so is any
binary operation whose result is not finite.
"""

import math

from meanlab.dsl.ast import _EXP_MAX, Constant, Expr, Unary, Variable, power
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


def strip_volatile(payload: dict) -> dict:
    """A JSON report without the fields outside the determinism contract."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
