"""Compilation of expression trees to flat postfix tapes.

A tape is a pair of parallel tuples: int opcodes and float operands
(only OP_CONST slots use the operand).  Tapes are the form in which
``kernels.lower_tape`` and ``kernels.lower_matrix`` read a generator and
lower it to straight-line Python; they also concatenate cheaply, which
is how sums and affine images of generators are lowered too instead of
falling back to Python callables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Binary, Constant, Expr, Unary, Variable

OP_CONST = 0
OP_X = 1
OP_NEG = 2
OP_EXP = 3
OP_LOG = 4
OP_SQRT = 5
OP_ADD = 6
OP_SUB = 7
OP_MUL = 8
OP_DIV = 9
OP_POW = 10

_UNARY_CODE = {"neg": OP_NEG, "exp": OP_EXP, "log": OP_LOG, "sqrt": OP_SQRT}
_BINARY_CODE = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV, "^": OP_POW}


@dataclass(frozen=True, slots=True)
class Tape:
    """Immutable postfix program over a single variable: ``code``, a
    tuple of ints, and ``operands``, a tuple of floats of the same,
    non-zero length."""

    code: tuple
    operands: tuple

    def __post_init__(self):
        code = tuple(int(op) for op in self.code)
        operands = tuple(float(c) for c in self.operands)
        if len(code) != len(operands) or not code:
            raise ValueError("malformed tape")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "operands", operands)

    def __len__(self):
        return len(self.code)

    def affine(self, a: float, b: float) -> "Tape":
        """Tape computing a*f(x) + b on top of this tape's f."""
        return Tape(self.code + (OP_CONST, OP_MUL, OP_CONST, OP_ADD),
                    self.operands + (float(a), 0.0, float(b), 0.0))


def tape_sum(tapes) -> Tape:
    """Tape computing the left-fold sum of the given tapes.

    The fold order matches how mean evaluators accumulate per-coordinate
    terms, so the sum tape at x equals 0.0 + f1(x) + ... + fn(x), and is
    NaN where that is not finite: the fused Gauss step reads the sum at
    a coordinate off the members' values there instead of evaluating it.
    """
    tapes = list(tapes)
    if not tapes:
        raise ValueError("tape_sum needs at least one tape")
    code = tapes[0].code
    operands = tapes[0].operands
    for t in tapes[1:]:
        code += t.code + (OP_ADD,)
        operands += t.operands + (0.0,)
    return Tape(code, operands)


def compile_expr(expr: Expr) -> Tape:
    """Lower an expression tree to a postfix tape."""
    code: list[int] = []
    operands: list[float] = []

    def emit(node: Expr):
        if isinstance(node, Constant):
            code.append(OP_CONST)
            operands.append(node.value)
        elif isinstance(node, Variable):
            code.append(OP_X)
            operands.append(0.0)
        elif isinstance(node, Unary):
            emit(node.operand)
            code.append(_UNARY_CODE[node.op])
            operands.append(0.0)
        elif isinstance(node, Binary):
            emit(node.left)
            emit(node.right)
            code.append(_BINARY_CODE[node.op])
            operands.append(0.0)
        else:
            raise TypeError(f"not an expression node: {node!r}")

    emit(expr)
    return Tape(code, operands)
