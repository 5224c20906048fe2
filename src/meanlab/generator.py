"""Strictly increasing generator functions on an interval.

A Generator pairs a scalar function with its domain.  Its one program
is an expression tree, ``Generator.expr``: a DSL expression, or for an
arbitrary Python callable a tree of one leaf, the callable wrapped once
in the evaluation guard (``callable(g.expr)`` marks such a generator).
It runs on the kernels, ``kernels.ACTIVE``, as a body, the tree lowered
once to straight-line Python and kept on the generator.  Sums and affine
images of generators are trees themselves, with the members' trees, body
leaves included, as subtrees, so they lower the same way.
``Generator.body``, ``Generator.invert_on`` and
``GeneratorSystem.program`` hand the kernels their programs: a
generator's body and solve, and a system's Gauss step, its one
program, which ``dsl.compiler.compile_step`` lowers from the members'
trees with their sum inlined into its solve.  Every evaluation,
inversion, mean and fused Gauss orbit runs the same kernels on those
programs, read from ``kernels.ACTIVE`` at each call.
Construction grid-checks strict growth, so code downstream may rely on
invertibility.  The verdict, like a tree's lowering, is kept per process
under the ``repr`` of the tree and of the interval, in the one LRU of
``dsl.compiler.kept``, so a tree built again on the same interval is
not evaluated again; a tree that holds a body leaf is checked on every
construction, and never kept.  A callable enters a tree only through
``Generator.from_callable``, which guards it.  A caller's point is
evaluated exactly where it is.

Inversion is bracketed: bisection with secant refinement weighted by the
Anderson-Bjorck rule, terminating on a residual test relative to |y|
and to the generator's values on the bracket, and at adjacent floats on
the endpoints' true residuals.  There is one solve, emitted by
``dsl.compiler`` with a tree inlined at each trial point: a generator's
own, which ``compile_solve`` lowers once, on the first ``invert_on``,
and ``kernels.invert``, whose docstring states the test, runs; and a
system's sum, inlined into its step.  The solve takes a list of targets
and the tree's values at the bracket's ends, which ``invert_on``
computes and passes with its one target, and both stop on the kernels'
constants ``INVERT_TOL`` and ``INVERT_BUDGET``, which no caller sets.
``Generator._invert_error`` is the one place its status codes become
package exceptions: for one solve in ``invert_on``, for one generalized
mean in ``GeneralizedQuasiArithmeticMean._evaluate`` (whose kernel runs
the solve on the sum of the members), and so for every Gauss step,
fused or not.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import kernels
from .dsl import compile_expr, parse, to_text
from .dsl.ast import Binary, Constant, Expr, leaves, sum_tree
from .dsl.compiler import compile_solve, compile_step, kept
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    EvalError,
    MonotonicityError,
    RangeError,
)
from .interval import Interval

MONOTONE_GRID = 256  # grid points of the strict-growth check
AFFINE_FIT_GRID = 64  # grid points of affine_fit

# Relative spread below which a function is treated as constant by
# affine_fit; the slope is not identifiable past this point.
_DEGENERATE_SPREAD = 1e-12


class MonotonicityReport(NamedTuple):
    """Outcome of the strictly-increasing grid check.

    ``witness`` is a pair (x, y) with x <= y at which the check failed:
    two grid points out of order, or twice the same point when the
    function was not finite there.
    """

    passed: bool
    grid_size: int
    witness: tuple[float, float] | None = None
    reason: str | None = None


class Generator:
    """A strictly increasing scalar function on an interval, given as an
    expression tree ``expr``; ``from_callable`` makes the tree of a
    Python callable.  A callable in ``expr`` that ``kernels.guard`` did
    not make, bare or as a leaf, is a TypeError."""

    __slots__ = ("domain", "label", "expr", "_body", "_solve")

    def __init__(
        self,
        domain: Interval,
        *,
        expr: Expr,
        label: str = "f",
        validate: bool = True,
    ):
        # a callable that ``kernels.guard`` did not make
        raw = next((leaf for leaf in leaves(expr) if not getattr(leaf, "guarded", False)), None)
        if raw is not None:
            raise TypeError(f"expr holds the unguarded callable {raw!r};"
                            " build a generator of a callable with Generator.from_callable")
        self.domain = domain
        self.label = label
        self.expr = expr
        self._body = self._solve = None
        if validate:
            report = check_monotone(self)
            if not report.passed:
                raise MonotonicityError(
                    f"{label!r} is not strictly increasing on {domain}"
                    f" ({report.reason} near x = {report.witness[0]!r})",
                    report,
                )

    @classmethod
    def from_expression(cls, source, domain: Interval, *, label=None):
        """Build from DSL text or an already-parsed expression tree."""
        if callable(source):
            raise TypeError("from_expression takes DSL text or a tree;"
                            " build a generator of a callable with Generator.from_callable")
        expr: Expr = parse(source) if isinstance(source, str) else source
        return cls(domain, expr=expr, label=label if label is not None else to_text(expr))

    @classmethod
    def from_callable(cls, fn, domain: Interval, *, label="f", validate=True):
        """Build from a Python callable, guarded once as a tree of one leaf."""
        return cls(domain, expr=kernels.guard(fn), label=label, validate=validate)

    def body(self):
        """The generator as a body of the kernels, a Python
        function of a float that returns a float, NaN where the generator
        is not finite: the tree lowered once by ``compile_expr``."""
        if self._body is None:
            self._body = compile_expr(self.expr)
        return self._body

    def __call__(self, x: float) -> float:
        """Evaluate at a point of the open domain, exactly there.

        Raises DomainError outside the interval and EvalError when the
        body fails to produce a finite value.
        """
        x = float(x)
        if not self.domain.contains(x):
            raise DomainError(f"x = {x} is outside {self.domain} for {self.label!r}")
        return self.eval_inside(x)

    def eval_inside(self, x: float) -> float:
        """Evaluate at x, with the domain check already done by the
        caller; EvalError where the body is not finite at x."""
        v = kernels.ACTIVE.eval_one(self.body(), x)
        if not math.isfinite(v):
            raise EvalError(f"{self.label!r} is not finite at x = {x}")
        return v

    def eval_grid(self, xs: Sequence[float]) -> list:
        """Evaluation at each of a sequence of points assumed inside the
        domain, as a list of floats.

        Non-finite entries come back as NaN; callers decide whether that
        is an error.
        """
        return kernels.ACTIVE.eval_grid(self.body(), xs)

    def invert_on(self, y: float, lo: float, hi: float) -> float:
        """Solve g(x) = y on a bracket [lo, hi] inside the domain, such as
        ``domain.grid(2)``, the inset ends of the whole domain.

        Raises RangeError when y is not bracketed by g(lo) and g(hi),
        ConvergenceError if the step budget runs out, and EvalError on
        non-finite evaluations.  It is one ``kernels.invert`` call on the
        one target y, which runs the tree's solve, lowered by
        ``compile_solve`` on the first call.
        """
        y, lo, hi = float(y), float(lo), float(hi)
        g = self.body()
        if self._solve is None:
            self._solve = compile_solve(self.expr)
        xs, status = kernels.ACTIVE.invert(self._solve, [y], lo, hi, g(lo), g(hi))
        if status != kernels.STATUS_OK:
            raise self._invert_error(status, f"y = {y}")
        return xs[0]

    def _invert_error(self, status, target):
        """The package exception for a failed solve; ``target`` names
        the value that was inverted."""
        if status == kernels.STATUS_RANGE:
            return RangeError(
                f"{target} is outside the value range of {self.label!r} on {self.domain}"
            )
        if status == kernels.STATUS_BUDGET:
            return ConvergenceError(
                f"inversion of {self.label!r} did not reach tol = {kernels.INVERT_TOL}"
                f" within {kernels.INVERT_BUDGET} steps"
            )
        return EvalError(f"{self.label!r} is not finite inside {self.domain}")

    def affine(self, a: float, b: float) -> "Generator":
        """The generator a*g + b, the tree g*a + b; a must be positive to
        preserve growth, and a and b finite."""
        a = float(a)
        b = float(b)
        if not (0.0 < a < math.inf and math.isfinite(b)):
            raise ValueError("affine image of a generator needs 0 < a < inf and a finite b")
        expr = Binary("+", Binary("*", self.expr, Constant(a)), Constant(b))
        return Generator(self.domain, expr=expr, label=f"{a!r}*({self.label}) + {b!r}",
                         validate=False)

    def __repr__(self):
        return f"Generator({self.label!r} on {self.domain})"


def check_monotone(g: Generator) -> MonotonicityReport:
    """Grid check for strict growth on MONOTONE_GRID points.  Never raises.

    Non-finite values fail the check too, with the offending point
    doubled as the witness pair.  The verdict is kept per process for
    the generator's tree and interval, unless the tree holds a body
    leaf (``dsl.compiler.kept``).
    """
    return kept(lambda: _grid_check(g), "monotone", g.expr, g.domain)


def _grid_check(g):
    xs = g.domain.grid(MONOTONE_GRID)
    vs = g.eval_grid(xs)
    for i in range(MONOTONE_GRID):
        if not math.isfinite(vs[i]):
            return MonotonicityReport(False, MONOTONE_GRID, (xs[i], xs[i]), "non-finite")
    for i in range(MONOTONE_GRID - 1):
        if vs[i] >= vs[i + 1]:
            return MonotonicityReport(
                False, MONOTONE_GRID, (xs[i], xs[i + 1]), "not increasing"
            )
    return MonotonicityReport(True, MONOTONE_GRID)


def affine_fit(f: Generator, g: Generator) -> tuple[float, float, float]:
    """Least-squares fit g ~ a*f + b on a shared grid of AFFINE_FIT_GRID
    points, in the centered closed form summed by ``math.fsum``:
    a = sum((f-mean f)(g-mean g)) / sum((f-mean f)^2), b = mean(g - a*f).

    Returns (a, b, residual) with residual the maximum absolute deviation
    over the grid.  Raises DegenerateError when f is numerically constant
    on the grid, since no slope is identifiable then.
    """
    if f.domain != g.domain:
        raise ValueError("affine_fit needs generators on the same interval")
    xs = f.domain.grid(AFFINE_FIT_GRID)
    fv = f.eval_grid(xs)
    gv = g.eval_grid(xs)
    if not all(map(math.isfinite, fv + gv)):
        raise EvalError("affine_fit hit a non-finite value on the sample grid")
    spread = max(fv) - min(fv)
    if spread < _DEGENERATE_SPREAD * max(1.0, max(map(abs, fv))):
        raise DegenerateError(f"{f.label!r} is numerically constant; no affine fit")
    n = len(fv)
    f_mean, g_mean = math.fsum(fv) / n, math.fsum(gv) / n
    df = [v - f_mean for v in fv]
    a = math.fsum(d * (w - g_mean) for d, w in zip(df, gv)) / math.fsum(d * d for d in df)
    b = math.fsum(w - a * v for v, w in zip(fv, gv)) / n
    residual = max(abs(a * v + b - w) for v, w in zip(fv, gv))
    return a, b, residual


class GeneratorSystem:
    """An ordered tuple of n >= 2 generators on one shared interval."""

    __slots__ = ("generators", "domain", "_sum", "_program")

    def __init__(self, generators: Sequence[Generator]):
        gens = tuple(generators)
        if len(gens) < 2:
            raise ValueError("a generator system needs at least two generators")
        domain = gens[0].domain
        for g in gens[1:]:
            if g.domain != domain:
                raise ValueError("all generators of a system must share one interval")
        self.generators = gens
        self.domain = domain
        self._sum = None
        self._program = None

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def label(self) -> str:
        return ",".join(g.label for g in self.generators)

    def sum_generator(self) -> Generator:
        """The pointwise sum f1 + ... + fn, itself strictly increasing."""
        if self._sum is None:
            self._sum = sum_generators(self.generators)
        return self._sum

    def program(self):
        """The system's Gauss step for the kernels ``gqam`` and
        ``cyclic_gauss``: ``compile_step`` over the members' trees, made
        once, on first use."""
        if self._program is None:
            self._program = compile_step([g.expr for g in self.generators])
        return self._program

    def affine(self, a: float, offsets: Sequence[float]) -> "GeneratorSystem":
        """Member-wise images a*f_i + b_i with one shared slope."""
        if len(offsets) != self.n:
            raise ValueError("need one offset per generator")
        return GeneratorSystem(
            [g.affine(a, b) for g, b in zip(self.generators, offsets)]
        )

    def __repr__(self):
        return f"GeneratorSystem([{self.label}] on {self.domain})"


def sum_generators(generators) -> Generator:
    """Pointwise sum of generators on one interval, from any iterable of
    them, such as a system's ``generators``.

    A sum of strictly increasing functions is strictly increasing, so the
    grid check is skipped.  The sum is the left-folded tree
    f1 + ... + fn of the members' trees.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("sum_generators needs at least one generator")
    domain = gens[0].domain
    for g in gens[1:]:
        if g.domain != domain:
            raise ValueError("summed generators must share one interval")
    return Generator(domain, expr=sum_tree(g.expr for g in gens),
                     label=" + ".join(g.label for g in gens), validate=False)


# Built-in generators with their customary intervals.  The system
# intervals are sized so cyclic Gauss iteration contracts well within the
# default budget; see the gauss module notes.
_BUILTIN_SPECS = {
    "x": ("x", Interval(0.0, 10.0)),
    "2*x": ("2*x", Interval(0.0, 10.0)),
    "x^2": ("x^2", Interval(0.1, 5.0)),
    "x^3": ("x^3", Interval(0.1, 5.0)),
    "log(x)": ("log(x)", Interval(0.1, 10.0)),
    "exp(x)": ("exp(x)", Interval(0.0, 10.0)),
}

_BUILTIN_SYSTEM_SPECS = {
    "x,2*x": (("x", "2*x"), Interval(0.0, 10.0)),
    "x,x^3": (("x", "x^3"), Interval(0.1, 5.0)),
    "log(x),x": (("log(x)", "x"), Interval(0.1, 10.0)),
    "exp(x),x": (("exp(x)", "x"), Interval(0.0, 3.0)),
    "x,x^2,x^3": (("x", "x^2", "x^3"), Interval(0.1, 5.0)),
}


def builtin_generator(name: str, domain: Interval | None = None) -> Generator:
    """One of the stock generators, optionally rebound to another interval."""
    if name not in _BUILTIN_SPECS:
        raise KeyError(f"no built-in generator named {name!r}")
    text, default_domain = _BUILTIN_SPECS[name]
    return Generator.from_expression(text, domain if domain is not None else default_domain)


def builtin_generators() -> dict[str, Generator]:
    return {name: builtin_generator(name) for name in _BUILTIN_SPECS}


def builtin_system(name: str, domain: Interval | None = None) -> GeneratorSystem:
    if name not in _BUILTIN_SYSTEM_SPECS:
        raise KeyError(f"no built-in generator system named {name!r}")
    texts, default_domain = _BUILTIN_SYSTEM_SPECS[name]
    dom = domain if domain is not None else default_domain
    return GeneratorSystem([Generator.from_expression(t, dom) for t in texts])


def builtin_systems() -> dict[str, GeneratorSystem]:
    """The stock generator systems on their tuned intervals."""
    return {name: builtin_system(name) for name in _BUILTIN_SYSTEM_SPECS}
