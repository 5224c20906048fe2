"""Tiny expression language for strictly increasing generators.

Public surface: ``parse`` text into an expression tree, ``eval_expr`` as
the reference evaluator, ``to_text`` as the canonical printer, and
``to_generator`` to bind an expression to an interval after the
monotonicity grid check.  Compilation to tapes, which the kernels lower
to Python, lives in ``compiler`` and is mostly an implementation detail
of Generator.
"""

from .ast import (
    Binary,
    Constant,
    Expr,
    Unary,
    Variable,
    X,
    eval_expr,
    to_text,
)
from .compiler import Tape, compile_expr, tape_sum
from .parser import parse


def to_generator(source, domain):
    """Bind an expression (tree or text) to an interval as a Generator.

    Runs the strictly-increasing grid check; failures raise
    MonotonicityError carrying the witness report.
    """
    from ..generator import Generator

    return Generator.from_expression(source, domain)


__all__ = [
    "Binary",
    "Constant",
    "Expr",
    "Tape",
    "Unary",
    "Variable",
    "X",
    "compile_expr",
    "eval_expr",
    "parse",
    "tape_sum",
    "to_generator",
    "to_text",
]
