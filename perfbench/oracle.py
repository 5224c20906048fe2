"""Independent reference values at 40 significant digits (mpmath).

Generators are written out here as mpmath functions, keyed by the DSL
text the benchmark passes to meanlab, so no reference value goes through
meanlab's parser, tapes or solvers.  Every mean is an inversion of a
sum of generators, solved with ``mpmath.findroot`` on the bracket
[min xs, max xs] that the mean property guarantees.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath

DIGITS = 40
REL_TOL = 1e-7

GENERATORS = {
    "x": lambda x: x,
    "2*x": lambda x: 2 * x,
    "x^2": lambda x: x ** 2,
    "x^3": lambda x: x ** 3,
    "2*x^3": lambda x: 2 * x ** 3,
    "log(x)": mpmath.log,
    "exp(x)": mpmath.exp,
}


def accepts(value, truth, rel_tol: float = REL_TOL) -> bool:
    """The oracle's tolerance test: a finite float within rel_tol of the
    reference, relative to the reference."""
    if value is None or not math.isfinite(value):
        return False
    return abs(mpmath.mpf(value) - truth) <= rel_tol * abs(truth)


def rel_err(value, truth) -> float:
    if value is None or not math.isfinite(value):
        return math.inf
    return float(abs(mpmath.mpf(value) - truth) / abs(truth))


def rotated(xs: Sequence, power: int) -> list:
    """Entry j is xs[(j - power) mod n], meanlab's cyclic convention."""
    n = len(xs)
    return [xs[(j - power) % n] for j in range(n)]


class Oracle:
    """Reference means for the generators f1..fn, F = f1 + ... + fn."""

    def __init__(self, exprs: Sequence[str]):
        self.fs = [GENERATORS[e] for e in exprs]

    def total(self, y):
        return mpmath.fsum(f(y) for f in self.fs)

    def solve(self, target, lo, hi):
        """F^{-1}(target) on [lo, hi]."""
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        if lo == hi:
            return lo
        scale = abs(target) if target != 0 else mpmath.mpf(1)
        with mpmath.workdps(DIGITS):
            root = mpmath.findroot(
                lambda y: (self.total(y) - target) / scale, (lo, hi),
                solver="anderson", verify=False,
            )
            if abs(self.total(root) - target) > mpmath.mpf(10) ** (10 - DIGITS) * scale:
                raise ArithmeticError(f"reference solve did not converge at {target}")
        return root

    def qam(self, xs: Sequence) -> mpmath.mpf:
        """Quasi-arithmetic mean generated by F: F^{-1}(mean F(x_i)).
        This is also the limit of the Gauss iteration (the paper's claim)."""
        with mpmath.workdps(DIGITS):
            pts = [mpmath.mpf(x) for x in xs]
            target = mpmath.fsum(self.total(x) for x in pts) / len(pts)
            return self.solve(target, min(pts), max(pts))

    def gqam(self, xs: Sequence) -> mpmath.mpf:
        """Generalized mean: F^{-1}(f1(x1) + ... + fn(xn))."""
        with mpmath.workdps(DIGITS):
            pts = [mpmath.mpf(x) for x in xs]
            target = mpmath.fsum(f(x) for f, x in zip(self.fs, pts))
            return self.solve(target, min(pts), max(pts))

    def generalized_bisymmetry(self, m: Sequence[Sequence[float]]) -> tuple:
        """(lhs, rhs) of the generalized bisymmetry identity: the outer
        F-mean over inner mean i of column i, and of row i."""
        n = len(m)
        cols = [[m[r][i] for r in range(n)] for i in range(n)]
        lhs = self.qam([self.gqam(rotated(cols[i], i)) for i in range(n)])
        rhs = self.qam([self.gqam(rotated(m[i], i)) for i in range(n)])
        return lhs, rhs

    def bisymmetry(self, m: Sequence[Sequence[float]]) -> tuple:
        """(lhs, rhs): the mean of row means and the mean of column means."""
        n = len(m)
        lhs = self.qam([self.qam(row) for row in m])
        rhs = self.qam([self.qam([m[r][j] for r in range(n)]) for j in range(n)])
        return lhs, rhs

    def associativity(self, xs: Sequence[float], ys: Sequence[float]) -> tuple:
        """(lhs, rhs): M(xs + ys) and M(xs + [M(ys)] * len(ys))."""
        y = self.qam(ys)
        return self.qam(list(xs) + list(ys)), self.qam(list(xs) + [y] * len(ys))
