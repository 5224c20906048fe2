"""Lowering of expression trees to straight-line Python.

This is the one place where a tree becomes code.  ``compile_expr``
makes a generator's body, a Python function of x; ``compile_solve``
makes the bracketed solve of F(x) = y for a tree F, a Python function
of a list of targets; ``compile_step`` makes a system's Gauss step, a
Python function of the list x of its n coordinates.  All three emit
the same statements for a tree: one per node, in post-order, so the
tree's operations run in the order ``ast`` defines its value in and
give that value bit for bit, as the reference walker of the tests
does.  Sums and affine images of generators are
trees too, left-folded ``+`` nodes and ``f*a + b``, and lower the same
way.
A body leaf, the guarded body of a Python callable, is bound once in
the lowered function's namespace and called with a NaN test; a bare
body is its own lowering.
A power with a literal exponent c takes no log per call: its base is
tested against a float cut computed once per exponent, at lowering,
where ``power``'s test ``c*log(a) > _EXP_MAX`` flips, so the NaN set
is ``power``'s to the bit.
The bracketed solve is written once, as ``_SOLVE``, the statements of
an Anderson-Bjorck loop over the targets ``ys`` on [lo, hi], around
one hole: the statements and the value of a tree at the trial point.
``compile_solve`` fills it with F's tree, and ``compile_step`` with the
sum of the members' trees, inlined as a tree is, so a step ends in the
lines of ``compile_solve`` of that sum.  The emitted code reads
``kernels.INVERT_TOL`` and ``INVERT_BUDGET`` at each call.
Each lowered function carries its Python source as ``source``, which
``tools/lowered.py`` prints for a step and a solve.
A lowering is a pure function of its trees, so each is made once per
process: ``kept`` holds the function that ``compile_expr``,
``compile_solve`` or ``compile_step`` makes of a tree, and
``generator.check_monotone``'s verdict for a tree on an interval, in
one LRU of ``CODE_CACHE_SIZE`` entries.  The key is the ``repr`` of each tree and interval, which
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

from .. import kernels
from .ast import _EXP_MAX, Binary, Constant, Expr, Unary, Variable, leaves, power, sum_tree

# the test under which each guarded function is not finite
_GUARD = {"exp": f"> {_EXP_MAX!r}", "log": "<= 0.0", "sqrt": "< 0.0"}
# what lowered code may name
_NAMES = {"__name__": __name__, "isfinite": math.isfinite, "nan": math.nan, "inf": math.inf,
          "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "pow": math.pow,
          "power": power, "kernels": kernels,
          **{k: v for k, v in vars(kernels).items() if k.startswith("STATUS_")}}
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
    each guard running the statements of the list ``fail`` where the
    value is not finite.  Constants become literals, in parentheses, and
    a negated literal is one too.  A body leaf is bound in the namespace
    ``names`` once, under "b" and a number, and its value is tested for
    NaN only, the one non-finite value a body returns.  A power with a
    literal exponent c runs the positive-base branch of ``power`` inline
    and calls ``power`` for every other base.  Inline, the base is tested
    against the cut of c, computed once by ``_power_cut`` exactly where
    power's log test flips, and pow below the cut is finite, so only
    ``power``'s value is tested; an exponent with no cut (c = 0,
    c = 0.5) leaves pow's value, inf at an infinite base, to the finite
    test.  Every other binary result is tested finite where it is made,
    so the final test is left out where the root is binary or a body.
    Statements are indented relative to their block."""
    lines = []
    slots = itertools.count()

    def unless(test, pad=""):
        return [f"{pad}if {test}:", *(f"{pad}    {s}" for s in fail)]

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
            lines.extend([f"{t} = {b}({x})", *unless(f"{t} != {t}")])
            return t
        if isinstance(node, Unary):
            if node.op != "neg":
                lines.extend([*unless(f"{a} {_GUARD[node.op]}"), f"{t} = {node.op}({a})"])
            elif a.startswith("("):  # a literal: negated exactly
                return f"({-float(a[1:-1])!r})"
            else:
                lines.append(f"{t} = -{a}")
            return t
        if node.op == "/":
            lines.extend(unless(f"{b} == 0.0"))
        if node.op == "^" and b.startswith("("):
            cut = _power_cut(float(b[1:-1]))
            lines.extend([f"if {a} > 0.0:",
                          *(unless(f"{a} {cut}", "    ") if cut else []),
                          f"    {t} = pow({a}, {b})",
                          "else:",
                          f"    {t} = power({a}, {b})"])
            if cut:  # below the cut pow is finite: only power's value is tested
                lines.extend(unless(f"not isfinite({t})", "    "))
                return t
        elif node.op == "^":
            lines.append(f"{t} = power({a}, {b})")
        else:
            lines.append(f"{t} = {a} {node.op} {b}")
        lines.extend(unless(f"not isfinite({t})"))
        return t

    value = walk(expr)
    if not (isinstance(expr, Binary) or callable(expr)):
        lines.extend(unless(f"not isfinite({value})"))
    return lines, value


# The bracketed solve of g(x) = y for each target y of ys on [lo, hi],
# given glo = g(lo) and ghi = g(hi), both finite: ``kernels.invert``'s
# docstring states it.  {evaluate} computes g at the trial point xm, and
# {value} is its value.
_SOLVE = """\
tol = kernels.INVERT_TOL
budget = range(kernels.INVERT_BUDGET)
# glo < y < ghi below, so max(|glo|, |ghi|) = max(-glo, ghi) > 0
big = ghi if ghi >= -glo else -glo
if big > 1.0:
    big = 1.0
xs = []
for y in ys:
    if not glo < y < ghi:
        # on or past an end, or NaN or infinite: the nearer end, where
        # its residual is finite and within the loose tolerance; a NaN
        # target's residual is NaN, an infinite one's infinite
        end, r = (lo, glo - y) if y <= glo else (hi, y - ghi)
        if r < inf and r <= tol * max(1.0, abs(y)):
            xs.append(end)
            continue
        xs.append(nan)
        return xs, STATUS_RANGE
    scale = tol * (y if y > big else -y if -y > big else big)
    a = lo
    b = hi
    # fa, fb: the endpoints' residuals as the secant weighs them; ra,
    # rb: their true residuals g(x) - y
    fa = ra = glo - y
    fb = rb = ghi - y
    side = 0
    for _ in budget:
        # fb - fa > 0: fa < 0 < fb on entry, a step gives the side it
        # moves a true residual with |f| > scale >= 0, and a weight m
        # in (0, 1] scales only the other side, keeping its sign or
        # underflowing it to a zero of that sign, so at most one of
        # fa, fb is a signed zero
        xm = a - fa * (b - a) / (fb - fa)
        if not (a < xm < b):
            # the halves summed: a + b may overflow where they do not
            xm = 0.5 * a + 0.5 * b
            if not (a < xm < b):
                # bracket has collapsed to adjacent floats: accept the
                # endpoint whose true residual is within the loose
                # tolerance; a weighted value may be far smaller
                loose = tol * max(1.0, abs(y))
                if -ra <= rb:
                    if -ra <= loose:
                        xs.append(a)
                        break
                elif rb <= loose:
                    xs.append(b)
                    break
                xs.append(0.5 * a + 0.5 * b)
                return xs, STATUS_BUDGET
{evaluate}
        fm = {value} - y
        if -scale <= fm <= scale:
            xs.append(xm)
            break
        if fm < 0.0:
            if side == -1:
                # a second step on this side: fa is the last step's
                # true residual, of fm's sign and nonzero
                m = 1.0 - fm / fa
                fb *= m if m > 0.0 else 0.5
            a = xm
            fa = ra = fm
            side = -1
        else:
            if side == 1:
                m = 1.0 - fm / fb
                fa *= m if m > 0.0 else 0.5
            b = xm
            fb = rb = fm
            side = 1
    else:
        xs.append(0.5 * a + 0.5 * b)
        return xs, STATUS_BUDGET
return xs, STATUS_OK"""


def _solve(tree, names):
    """The lines of ``_SOLVE`` with the tree inlined at the trial point
    xm, which ends the solve with ``STATUS_NONFINITE`` where it is not
    finite; a body leaf is bound in ``names``."""
    lines, value = _emit(tree, "xm", "s", ["xs.append(nan)", "return xs, STATUS_NONFINITE"],
                         names)
    return _SOLVE.format(evaluate="\n".join(" " * 8 + line for line in lines),
                         value=value).splitlines()


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
    """The function ``name`` of ``params`` whose body is the statements
    ``lines``, defined in ``names``; it carries its Python source as
    ``source``."""
    source = "\n".join([f"def {name}({params}):", *("    " + line for line in lines)])
    exec(compile(source, f"<meanlab {name}>", "exec"), names)
    names[name].source = source
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
    lines, value = _emit(expr, "x", "", ["return nan"], names)
    return _define("body", "x", [*lines, f"return {value}"], names)


def compile_solve(tree):
    """The bracketed solve of F(x) = y, F the tree, as ``solve(ys, lo,
    hi, glo, ghi) -> (xs, status)``, which ``kernels.invert`` runs: the
    statements of ``_SOLVE``, with the tree inlined at each trial point
    by the emitter of ``compile_expr``, after a test that fails the
    solve with ``STATUS_NONFINITE`` (and xs [nan]) where glo or ghi is
    NaN.  A bare body is a tree of one leaf, called there and tested
    for NaN.  A tree without body leaves is lowered once per process,
    as ``compile_expr``'s trees are."""
    return kept(lambda: _lower_solve(tree), "solve", tree)


def _lower_solve(tree):
    names = dict(_NAMES)
    lines = ["if glo != glo or ghi != ghi:  # NaN",
             "    return [nan], STATUS_NONFINITE",
             *_solve(tree, names)]
    return _define("solve", "ys, lo, hi, glo, ghi", lines, names)


def compile_step(members):
    """A system's Gauss step, ``step(x, lo, hi, count=n) -> (out,
    status)``, for the list x of n floats, of span [lo, hi] (its min and
    max): ``out`` holds the means of the first ``count`` rotations of
    the cyclic mapping,

        rotation i = F^{-1}(targets[i]),  F = f_0 + ... + f_{n-1},
        targets[i] = 0.0 + f_0(x_{(0-i) mod n}) + ... + f_{n-1}(x_{(n-1-i) mod n}),

    solved on [lo, hi], which brackets each by the mean property.  The
    step evaluates each member f_j at each coordinate x_k, member by
    member, its tree inlined by the emitter of ``compile_expr``, and
    fails with ``STATUS_NONFINITE`` (and ``out`` None) where one of
    those values is NaN.  F(lo) and F(hi) are the folds
    0.0 + f_0(x_k) + ... + f_{n-1}(x_k) at the first coordinate x_k
    equal to each, as ``list.index`` finds it (a zero may differ in
    sign from F's, which the solve never reads); the step fails the
    same way where either is not finite.  Then the statements of
    ``compile_solve`` of F's tree, the left fold ``dsl.ast.sum_tree`` of
    the members, solve the targets inline: ``out`` and the status are
    what that solve returns.  Members that hold no body leaf are lowered
    once per process, as ``compile_expr``'s trees are."""
    return kept(lambda: _lower_step(members), "step", *members)


def _lower_step(members):
    n = len(members)
    names = dict(_NAMES)
    coords = [f"x{k}" for k in range(n)]
    lines = [f"[{', '.join(coords)}] = x"]
    value = {}
    for j, member in enumerate(members):
        for k in range(n):
            emitted, value[j, k] = _emit(member, f"x{k}", f"m{j}_{k}_",
                                         ["return None, STATUS_NONFINITE"], names)
            lines += emitted

    def fold(terms):
        return " + ".join(["0.0", *terms])

    for end, at in (("glo", "lo"), ("ghi", "hi")):
        # F at the first coordinate equal to the end, as list.index finds it
        for k in range(n - 1):
            lines += [f"{'if' if k == 0 else 'elif'} x{k} is {at} or x{k} == {at}:",
                      f"    {end} = {fold(value[j, k] for j in range(n))}"]
        last = fold(value[j, n - 1] for j in range(n))
        lines += ["else:", f"    {end} = {last}"] if n > 1 else [f"{end} = {last}"]
    lines += ["if not (isfinite(glo) and isfinite(ghi)):",
              "    return None, STATUS_NONFINITE"]
    targets = [fold(value[j, (j - i) % n] for j in range(n)) for i in range(n)]
    lines += [f"ys = ({', '.join(targets)},)[:count]", *_solve(sum_tree(members), names)]
    return _define("step", f"x, lo, hi, count={n}", lines, names)
