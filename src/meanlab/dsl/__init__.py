"""Tiny expression language for strictly increasing generators.

Public surface: ``parse`` text into an expression tree, ``eval_expr`` as
the reference evaluator, ``to_text`` as the canonical printer,
``compile_expr`` to lower a tree to a Python body, and ``to_generator``
to bind an expression to an interval after the monotonicity grid check.
The tree is the one program form: ``compiler`` lowers it straight to
Python, for a generator's body and a system's member matrix alike.  A
Python callable, guarded, enters a tree as a leaf, which has no text.
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
from .compiler import compile_expr
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
    "Unary",
    "Variable",
    "X",
    "compile_expr",
    "eval_expr",
    "parse",
    "to_generator",
    "to_text",
]
