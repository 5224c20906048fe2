"""Tiny expression language for strictly increasing generators.

Public surface: ``parse`` text into an expression tree, ``to_text`` as
the canonical printer, and ``compile_expr`` to lower a tree to a Python
body, the one evaluator of trees.  A tree or its text becomes a
generator on an interval through ``Generator.from_expression``, after
the monotonicity grid check.
The tree is the one program form: ``compiler`` lowers it straight to
Python, for a generator's body and a system's Gauss step alike.  A
Python callable, guarded, enters a tree as a leaf, which has no text.
"""

from .ast import (
    Binary,
    Constant,
    Expr,
    Unary,
    Variable,
    X,
    to_text,
)
from .compiler import compile_expr
from .parser import parse

__all__ = [
    "Binary",
    "Constant",
    "Expr",
    "Unary",
    "Variable",
    "X",
    "compile_expr",
    "parse",
    "to_text",
]
