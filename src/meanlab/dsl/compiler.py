"""Lowering of expression trees to straight-line Python.

This is the one place where a tree becomes code.  ``compile_expr``
makes a generator's body, a Python function of x; ``compile_matrix``
makes a system's member matrix, a Python function of x0..x_{n-1}.  Both
emit the same statements for a tree: one per node, in post-order, so
the tree's operations run in the order ``eval_expr`` runs them and give
its values bit for bit.  Sums and affine images of generators are trees
too, left-folded ``+`` nodes and ``f*a + b``, and lower the same way.
"""

from __future__ import annotations

import itertools
import math

from .ast import _EXP_MAX, Binary, Constant, Expr, Unary, Variable, power

# the test under which each guarded function is not finite
_GUARD = {"exp": f"> {_EXP_MAX!r}", "log": "<= 0.0", "sqrt": "< 0.0"}
# what lowered code may name
_NAMES = {"__name__": __name__, "isfinite": math.isfinite, "nan": math.nan,
          "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "pow": math.pow,
          "power": power}


def _emit(expr, x, prefix, fail):
    """Statements that compute the tree at the input named ``x`` and the
    expression of its value: the tree's nodes in post-order, on
    temporaries named ``prefix`` + "t" + the node's post-order index,
    each guard running the statement ``fail`` where the value is not
    finite.  Constants become literals, in parentheses, and a negated
    literal is one too.  A power with a literal exponent runs the
    positive-base branch of ``power`` inline and calls ``power`` for
    every other base.  Every binary result is tested finite where it is
    made, so the final test is left out where the root is binary.
    Statements are indented relative to their block."""
    lines = []
    slots = itertools.count()

    def walk(node):
        if isinstance(node, Unary):
            a = walk(node.operand)
        elif isinstance(node, Binary):
            a = walk(node.left)
            b = walk(node.right)
        t = f"{prefix}t{next(slots)}"
        if isinstance(node, Constant):
            return f"({node.value!r})"
        if isinstance(node, Variable):
            return x
        if isinstance(node, Unary):
            if node.op != "neg":
                lines.extend([f"if {a} {_GUARD[node.op]}:", f"    {fail}", f"{t} = {node.op}({a})"])
            elif a.startswith("("):  # a literal: negated exactly
                return f"({-float(a[1:-1])!r})"
            else:
                lines.append(f"{t} = -{a}")
            return t
        if node.op == "/":
            lines.extend([f"if {b} == 0.0:", f"    {fail}"])
        if node.op == "^" and b.startswith("("):
            lines.extend([f"if {a} > 0.0:",
                          f"    if {b} * log({a}) > {_EXP_MAX!r}:",
                          f"        {fail}",
                          f"    {t} = pow({a}, {b})",
                          "else:",
                          f"    {t} = power({a}, {b})"])
        elif node.op == "^":
            lines.append(f"{t} = power({a}, {b})")
        else:
            lines.append(f"{t} = {a} {node.op} {b}")
        lines.extend([f"if not isfinite({t}):", f"    {fail}"])
        return t

    value = walk(expr)
    if not isinstance(expr, Binary):
        lines.extend([f"if not isfinite({value}):", f"    {fail}"])
    return lines, value


def _define(name, params, lines, names):
    """The function ``name`` with body ``lines``, compiled in ``names``."""
    source = "\n".join([f"def {name}({params}):", *("    " + line for line in lines)])
    exec(compile(source, f"<meanlab {name}>", "exec"), names)
    return names[name]


def compile_expr(expr: Expr):
    """The tree as a body: a straight-line Python function of x that
    returns the tree's value, NaN where ``eval_expr`` raises (a guard
    fails or a binary result is not finite)."""
    lines, value = _emit(expr, "x", "", "return nan")
    return _define("body", "x", [*lines, f"return {value}"], dict(_NAMES))


def compile_matrix(members):
    """A system's member matrix: ``matrix(x0, ..., x_{n-1})`` evaluates
    each member f_j at each coordinate x_k, member by member, and
    returns (targets, folds), two lists of floats:

        targets[i] = 0.0 + f_0(x_{(0-i) mod n}) + ... + f_{n-1}(x_{(n-1-i) mod n})
        folds[k]   = 0.0 + f_0(x_k) + ... + f_{n-1}(x_k)

    each folded in member order; it returns None where some member value
    is NaN.  A member is a tree, inlined at each coordinate by the
    emitter of ``compile_expr``, or a body, called with a NaN test."""
    n = len(members)
    names = dict(_NAMES)
    lines = []
    value = {}
    for j, member in enumerate(members):
        if callable(member):
            names[f"b{j}"] = member
        for k in range(n):
            if callable(member):
                v = f"m{j}_{k}"
                lines += [f"{v} = b{j}(x{k})", f"if {v} != {v}:", "    return None"]
            else:
                emitted, v = _emit(member, f"x{k}", f"m{j}_{k}_", "return None")
                lines += emitted
            value[j, k] = v

    def fold(terms):
        return " + ".join(["0.0", *terms])

    targets = [fold(value[j, (j - i) % n] for j in range(n)) for i in range(n)]
    folds = [fold(value[j, k] for j in range(n)) for k in range(n)]
    lines.append(f"return [{', '.join(targets)}], [{', '.join(folds)}]")
    return _define("matrix", ", ".join(f"x{k}" for k in range(n)), lines, names)
