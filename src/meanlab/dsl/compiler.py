"""Compilation of expression trees to flat postfix tapes.

A tape is a pair of parallel arrays: int64 opcodes and float64 operands
(only OP_CONST slots use the operand).  Tapes are the form in which
``kernels.lower_tape`` and ``kernels.lower_matrix`` read a generator and
lower it to straight-line Python; they also concatenate cheaply, which
is how sums and affine images of generators are lowered too instead of
falling back to Python callables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Immutable postfix program over a single variable."""

    code: np.ndarray
    operands: np.ndarray

    def __post_init__(self):
        code = np.ascontiguousarray(self.code, dtype=np.int64)
        operands = np.ascontiguousarray(self.operands, dtype=np.float64)
        if code.shape != operands.shape or code.ndim != 1 or code.size == 0:
            raise ValueError("malformed tape")
        code.setflags(write=False)
        operands.setflags(write=False)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "operands", operands)

    def __len__(self):
        return self.code.size

    def affine(self, a: float, b: float) -> "Tape":
        """Tape computing a*f(x) + b on top of this tape's f."""
        extra_code = [OP_CONST, OP_MUL, OP_CONST, OP_ADD]
        extra_ops = [float(a), 0.0, float(b), 0.0]
        return Tape(
            np.concatenate([self.code, np.asarray(extra_code, dtype=np.int64)]),
            np.concatenate([self.operands, np.asarray(extra_ops, dtype=np.float64)]),
        )


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
    code_parts = [tapes[0].code]
    op_parts = [tapes[0].operands]
    add_code = np.asarray([OP_ADD], dtype=np.int64)
    add_op = np.asarray([0.0], dtype=np.float64)
    for t in tapes[1:]:
        code_parts.extend([t.code, add_code])
        op_parts.extend([t.operands, add_op])
    return Tape(np.concatenate(code_parts), np.concatenate(op_parts))


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
    return Tape(np.asarray(code, dtype=np.int64), np.asarray(operands, dtype=np.float64))
