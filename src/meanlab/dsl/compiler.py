"""Lowering of expression trees to straight-line Python.

This is the one place where a tree becomes code.  ``compile_expr``
makes a generator's body, a Python function of x; ``compile_matrix``
makes a system's member matrix, a Python function of x0..x_{n-1}.  Both
emit the same statements for a tree: one per node, in post-order, so
the tree's operations run in the order ``ast`` defines its value in and
give that value bit for bit, as the reference walker of the tests does.
Sums and affine images of generators are trees too, left-folded ``+``
nodes and ``f*a + b``, and lower the same way.
A body leaf, the guarded body of a Python callable, is bound once in
the lowered function's namespace and called with a NaN test; a bare
body is its own lowering.
A power with a literal exponent c takes no log per call: its base is
tested against a float cut computed once per exponent, at lowering,
where ``power``'s test ``c*log(a) > _EXP_MAX`` flips, so the NaN set
is ``power``'s to the bit.
A lowering is a pure function of its trees, so each is made once per
process: ``kept`` holds the function that ``compile_expr`` or
``compile_matrix`` makes of a tree, and ``generator.check_monotone``'s
verdict for a tree on an interval, in one LRU of ``CODE_CACHE_SIZE``
entries.  The key is the ``repr`` of each tree and interval, which
tells ``Constant(-0.0)`` from ``Constant(0.0)`` where ``==`` does not.
A tree that holds a body leaf is never kept: a leaf may be any
callable, impure ones included, and every guard is new, so its key
would never repeat.  Such a tree is lowered afresh on every call, into
a namespace of its own, so the leaves it binds belong to that lowering
alone.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import struct
import sys

from .ast import _EXP_MAX, Binary, Constant, Expr, Unary, Variable, leaves, power

# the test under which each guarded function is not finite
_GUARD = {"exp": f"> {_EXP_MAX!r}", "log": "<= 0.0", "sqrt": "< 0.0"}
# what lowered code may name
_NAMES = {"__name__": __name__, "isfinite": math.isfinite, "nan": math.nan,
          "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "pow": math.pow,
          "power": power}
# lowerings and grid verdicts kept per process, least recently used first
CODE_CACHE_SIZE = 256
_KEPT = collections.OrderedDict()
_MAX_BITS = struct.unpack("<Q", struct.pack("<d", sys.float_info.max))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@functools.cache
def _power_cut(c):
    """The test under which a positive base a makes ``power(a, c)`` NaN,
    for a literal exponent c: "> HI" for c > 0 or "< LO" for c < 0, with
    HI and LO the floats at which power's test ``c*log(a) > _EXP_MAX``
    flips, found by bisection over the bit patterns of the positive
    floats, which order as the floats do; None where no finite positive
    base fails, as for c = 0, c = 0.5 or -0.9 < c < 0."""

    def fails(bits):
        return c * math.log(_float(bits)) > _EXP_MAX

    lo, hi = 1, _MAX_BITS  # the least and the greatest finite positive float
    edge = fails(lo)
    if edge == fails(hi):
        return None
    while hi - lo > 1:  # fails(lo) == edge != fails(hi)
        mid = (lo + hi) // 2
        if fails(mid) == edge:
            lo = mid
        else:
            hi = mid
    return f"> {_float(lo)!r}" if c > 0.0 else f"< {_float(hi)!r}"


def _emit(expr, x, prefix, fail, names):
    """Statements that compute the tree at the input named ``x`` and the
    expression of its value: the tree's nodes in post-order, on
    temporaries named ``prefix`` + "t" + the node's post-order index,
    each guard running the statement ``fail`` where the value is not
    finite.  Constants become literals, in parentheses, and a negated
    literal is one too.  A body leaf is bound in the namespace ``names``
    once, under "b" and a number, and its value is tested for NaN only,
    the one non-finite value a body returns.  A power with a literal
    exponent c runs the positive-base branch of ``power`` inline and
    calls ``power`` for every other base.  Inline, the base is tested
    against the cut of c, computed once by ``_power_cut`` exactly where
    power's log test flips, and pow below the cut is finite, so only
    ``power``'s value is tested; an exponent with no cut (c = 0,
    c = 0.5) leaves pow's value, inf at an infinite base, to the finite
    test.  Every other binary result is tested finite where it is made,
    so the final test is left out where the root is binary or a body.
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
        if callable(node):
            b = next((k for k, v in names.items() if v is node), f"b{len(names)}")
            names[b] = node
            lines.extend([f"{t} = {b}({x})", f"if {t} != {t}:", f"    {fail}"])
            return t
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
            cut = _power_cut(float(b[1:-1]))
            lines.extend([f"if {a} > 0.0:",
                          *([f"    if {a} {cut}:", f"        {fail}"] if cut else []),
                          f"    {t} = pow({a}, {b})",
                          "else:",
                          f"    {t} = power({a}, {b})"])
            if cut:  # below the cut pow is finite: only power's value is tested
                lines.extend([f"    if not isfinite({t}):", f"        {fail}"])
                return t
        elif node.op == "^":
            lines.append(f"{t} = power({a}, {b})")
        else:
            lines.append(f"{t} = {a} {node.op} {b}")
        lines.extend([f"if not isfinite({t}):", f"    {fail}"])
        return t

    value = walk(expr)
    if not (isinstance(expr, Binary) or callable(expr)):
        lines.extend([f"if not isfinite({value}):", f"    {fail}"])
    return lines, value


def kept(make, *parts):
    """``make()``, kept per process under the ``repr`` of ``parts``, a
    tag and the trees and intervals it is a pure function of, in the LRU
    of ``CODE_CACHE_SIZE`` entries; made afresh and not kept where a
    tree holds a body leaf."""
    if any(True for part in parts for _ in leaves(part)):
        return make()
    key = repr(parts)
    # a hit is popped and put back as the most recent; the value returned
    # is never read back from the dict, which another thread may evict from
    value = _KEPT.pop(key, None)
    if value is None:
        value = make()
    _KEPT[key] = value
    if len(_KEPT) > CODE_CACHE_SIZE:
        _KEPT.popitem(last=False)
    return value


def _define(name, params, lines, names):
    """The function ``name`` with body ``lines``, defined in ``names``."""
    source = "\n".join([f"def {name}({params}):", *("    " + line for line in lines)])
    exec(compile(source, f"<meanlab {name}>", "exec"), names)
    return names[name]


def compile_expr(expr: Expr):
    """The tree as a body: a straight-line Python function of x that
    returns the tree's value, NaN where the tree is not finite (a guard
    fails, a body leaf is NaN or a binary result is not finite).  A
    bare body comes back as it is.  A tree without body leaves is
    lowered once per process: trees of one ``repr`` share the function."""
    if callable(expr):
        return expr
    return kept(lambda: _lower_body(expr), "body", expr)


def _lower_body(expr):
    names = dict(_NAMES)
    lines, value = _emit(expr, "x", "", "return nan", names)
    return _define("body", "x", [*lines, f"return {value}"], names)


def compile_matrix(members):
    """A system's member matrix: ``matrix(x0, ..., x_{n-1})`` evaluates
    each member f_j at each coordinate x_k, member by member, and
    returns (targets, folds), two lists of floats:

        targets[i] = 0.0 + f_0(x_{(0-i) mod n}) + ... + f_{n-1}(x_{(n-1-i) mod n})
        folds[k]   = 0.0 + f_0(x_k) + ... + f_{n-1}(x_k)

    each folded in member order; it returns None where some member value
    is NaN.  Each member is a tree, inlined at each coordinate by the
    emitter of ``compile_expr``.  Members that hold no body leaf are
    lowered once per process, as ``compile_expr``'s trees are."""
    return kept(lambda: _lower_matrix(members), "matrix", *members)


def _lower_matrix(members):
    n = len(members)
    names = dict(_NAMES)
    lines = []
    value = {}
    for j, member in enumerate(members):
        for k in range(n):
            emitted, value[j, k] = _emit(member, f"x{k}", f"m{j}_{k}_", "return None", names)
            lines += emitted

    def fold(terms):
        return " + ".join(["0.0", *terms])

    targets = [fold(value[j, (j - i) % n] for j in range(n)) for i in range(n)]
    folds = [fold(value[j, k] for j in range(n)) for k in range(n)]
    lines.append(f"return [{', '.join(targets)}], [{', '.join(folds)}]")
    return _define("matrix", ", ".join(f"x{k}" for k in range(n)), lines, names)
