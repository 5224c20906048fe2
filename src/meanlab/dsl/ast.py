"""Expression trees for the one-variable generator language.

The language is deliberately tiny: the variable ``x``, decimal constants,
the four arithmetic operators plus ``^``, unary minus, and the functions
``exp``, ``log`` and ``sqrt``.  That is enough to express every generator
used by the mean constructions here.  The tree is the one form a
generator's program takes: ``compiler`` lowers it straight to Python.
A body, a Python function of a float that returns a float, NaN where it
is not finite, may stand as any leaf of a tree: that is how a Python
callable, guarded once by ``kernels.guard``, enters sums and affine
images of generators, and a bare body is a tree of one leaf.  A body
has no text form.

The value of a tree at x is defined node by node, in post-order.  A
body leaf's value is what the body returns.  Non-finite values do not
come back: exp, log, sqrt, division and ``^`` are NaN outside their
guards, and so is any binary operation whose result is not finite, so an
overflow stays NaN through a later division or exp; a tree whose value
is NaN is not finite at x.  ``compiler`` lowers trees to Python that
follows this rule.  A direct recursive walk of the tree, the reference
semantics, lives with the tests (``tests/support.py``), which hold the
lowered bodies and member matrices to it bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Union

UNARY_OPS = ("neg", "exp", "log", "sqrt")
BINARY_OPS = ("+", "-", "*", "/", "^")

# exp overflows past log(DBL_MAX); treated as non-finite like any overflow
_EXP_MAX = 709.0


class Constant(NamedTuple("Constant", [("value", float)])):
    __slots__ = ()

    def __new__(cls, value):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("constants must be finite")
        return super().__new__(cls, v)


class Variable:
    """The variable x: every Variable equals every other."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Variable)

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return "Variable()"


class Unary(NamedTuple("Unary", [("op", str), ("operand", "Expr")])):
    __slots__ = ()

    def __new__(cls, op, operand):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        return super().__new__(cls, op, operand)


class Binary(NamedTuple("Binary", [("op", str), ("left", "Expr"), ("right", "Expr")])):
    __slots__ = ()

    def __new__(cls, op, left, right):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        return super().__new__(cls, op, left, right)


# a body leaf: a Python function of a float, NaN where it is not finite
Expr = Union[Constant, Variable, Unary, Binary, Callable[[float], float]]

X = Variable()


def leaves(expr: Expr):
    """The body leaves of a tree, left to right."""
    if isinstance(expr, Binary):
        yield from leaves(expr.left)
        yield from leaves(expr.right)
    elif isinstance(expr, Unary):
        yield from leaves(expr.operand)
    elif callable(expr):
        yield expr


def sum_tree(trees) -> Expr:
    """The left-folded sum f1 + ... + fn of a sequence of trees."""
    return functools.reduce(lambda left, right: Binary("+", left, right), trees)


def power(base: float, exponent: float) -> float:
    """Real-valued power with NaN for anything that would leave the reals.

    Semantically exp(exponent*log base) on positive bases; negative bases
    are accepted only with integer exponents, and 0^0 is taken as 1.  The
    magnitude guard runs before math.pow so overflow surfaces as NaN
    instead of an exception, in the walker and in lowered bodies alike.
    """
    if math.isnan(base) or math.isnan(exponent):
        return math.nan
    if base > 0.0:
        if exponent * math.log(base) > _EXP_MAX:
            return math.nan
        return math.pow(base, exponent)
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return 1.0
        return math.nan
    # negative base: integer exponents only; the magnitude test comes
    # first, as math.floor raises on an infinite exponent
    if abs(exponent) > 2**31 or exponent != math.floor(exponent):
        return math.nan
    if exponent * math.log(-base) > _EXP_MAX:
        return math.nan
    return math.pow(base, exponent)


# Printer precedence levels, matching the grammar in parser.py:
# sums bind loosest, then products, unary minus, and ^ tightest with an
# atom-only base.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(expr: Expr) -> int:
    if isinstance(expr, Binary):
        if expr.op in ("+", "-"):
            return _PREC_ADD
        if expr.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(expr, Unary) and expr.op == "neg":
        return _PREC_NEG
    if isinstance(expr, Constant) and math.copysign(1.0, expr.value) < 0.0:  # -0.0 too
        return _PREC_NEG
    return _PREC_ATOM


def to_text(expr: Expr) -> str:
    """Canonical text form: minimal parentheses, reparses to an
    expression with identical evaluation semantics.  Raises TypeError on
    a tree that holds a body leaf."""
    return _fmt(expr, 0)


def _fmt(expr: Expr, context: int) -> str:
    if isinstance(expr, Constant):
        # an integral value without ".0": int() would write 1e300 out in full
        text = (repr(expr.value) if expr.value >= 0.0 else "-" + repr(-expr.value)).removesuffix(".0")
    elif isinstance(expr, Variable):
        text = "x"
    elif callable(expr):
        raise TypeError(f"a body leaf has no text form: {expr!r}")
    elif isinstance(expr, Unary):
        if expr.op == "neg":
            text = "-" + _fmt(expr.operand, _PREC_NEG)
        else:
            text = f"{expr.op}({_fmt(expr.operand, 0)})"
    else:
        if expr.op in ("+", "-"):
            text = f"{_fmt(expr.left, _PREC_ADD)} {expr.op} {_fmt(expr.right, _PREC_MUL)}"
        elif expr.op in ("*", "/"):
            text = f"{_fmt(expr.left, _PREC_MUL)}{expr.op}{_fmt(expr.right, _PREC_NEG)}"
        else:
            # base must be an atom; exponent admits unary minus and chains
            text = f"{_fmt(expr.left, _PREC_ATOM)}^{_fmt(expr.right, _PREC_NEG)}"
    if _prec(expr) < context:
        return f"({text})"
    return text
