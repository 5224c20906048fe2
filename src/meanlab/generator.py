"""Strictly increasing generator functions on an interval.

A Generator pairs a scalar function with its domain: a compiled DSL tape
or an arbitrary Python callable.  ``Generator.program`` and
``GeneratorSystem.program`` pick the kernel family for either kind, and
every evaluation, inversion, mean step and fused Gauss orbit runs the same
kernels on that program.  Construction grid-checks strict growth, so code
downstream may rely on invertibility.

Inversion is bracketed: bisection with Illinois-damped secant refinement,
terminating on a residual test relative to |y| and to the generator's
values on the bracket, within a 200-step budget.  There is one solver,
``kernels.make_invert``, whose docstring states the test.
``Generator._invert_error`` is the one place its status codes become
package exceptions: for one solve in ``invert_on``, for one generalized
mean in ``means.gqam_eval`` (whose kernel runs the solve on the sum
generator), and so for every Gauss step, fused or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .dsl import compile_expr, parse, to_text
from .dsl.ast import Expr
from .dsl.compiler import Tape, pack_tapes, tape_sum
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    EvalError,
    MonotonicityError,
    RangeError,
)
from .interval import Interval

DEFAULT_INVERT_TOL = 1e-12
INVERT_BUDGET = 200
MONOTONE_GRID = 256  # grid points of the strict-growth check
AFFINE_FIT_GRID = 64  # grid points of affine_fit

# Relative spread below which a function is treated as constant by
# affine_fit; the slope is not identifiable past this point.
_DEGENERATE_SPREAD = 1e-12


@dataclass(frozen=True, slots=True)
class MonotonicityReport:
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
    """A strictly increasing scalar function on an interval."""

    __slots__ = ("domain", "label", "tape", "fn")

    def __init__(
        self,
        domain: Interval,
        *,
        tape: Tape | None = None,
        fn: Callable[[float], float] | None = None,
        label: str = "f",
        validate: bool = True,
    ):
        if (tape is None) == (fn is None):
            raise ValueError("exactly one of tape or fn is required")
        self.domain = domain
        self.label = label
        self.tape = tape
        self.fn = fn
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
        expr: Expr = parse(source) if isinstance(source, str) else source
        text = to_text(expr)
        return cls(
            domain,
            tape=compile_expr(expr),
            label=label if label is not None else text,
        )

    @classmethod
    def from_callable(cls, fn, domain: Interval, *, label="f", validate=True):
        return cls(domain, fn=fn, label=label, validate=validate)

    @property
    def is_tape_backed(self) -> bool:
        return self.tape is not None

    def program(self):
        """(family, code, operands): ``kernels.ACTIVE``, read at call
        time, over the tape, or ``kernels.CALLABLE`` over (fn,)."""
        if self.tape is not None:
            return kernels.ACTIVE, self.tape.code, self.tape.operands
        return kernels.CALLABLE, (self.fn,), None

    def __call__(self, x: float) -> float:
        """Evaluate at a point of the domain.

        Raises DomainError outside the interval and EvalError when the
        body fails to produce a finite value.
        """
        x = float(x)
        if not self.domain.contains(x):
            raise DomainError(f"x = {x} is outside {self.domain} for {self.label!r}")
        return self.eval_inside(x)

    def eval_inside(self, x: float) -> float:
        """Evaluate with the domain check already done by the caller.

        Clamps into the inset interior so open endpoints never reach a
        singularity of the body.
        """
        x = self.domain.clamp(x)
        v = self._raw(x)
        if not math.isfinite(v):
            raise EvalError(f"{self.label!r} is not finite at x = {x}")
        return v

    def eval_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vector evaluation over points assumed inside the domain.

        Non-finite entries come back as NaN; callers decide whether that
        is an error.
        """
        ks, code, operands = self.program()
        return ks.eval_grid(code, operands, np.asarray(xs, dtype=np.float64))

    def invert(self, y: float, tol: float = DEFAULT_INVERT_TOL) -> float:
        """Solve g(x) = y on the domain.

        Raises RangeError when y is not bracketed by the values at the
        clamped endpoints, ConvergenceError if the step budget runs out,
        and EvalError on non-finite evaluations.
        """
        lo = self.domain.clamp(self.domain.lo)
        hi = self.domain.clamp(self.domain.hi)
        return self.invert_on(y, lo, hi, tol)

    def invert_on(self, y: float, lo: float, hi: float, tol: float = DEFAULT_INVERT_TOL) -> float:
        """Inversion with a caller-supplied bracket inside the domain."""
        y = float(y)
        ks, code, operands = self.program()
        x, status = ks.invert(code, operands, y, lo, hi, tol, INVERT_BUDGET)
        if status != kernels.STATUS_OK:
            raise self._invert_error(status, f"y = {y}", tol)
        return float(x)  # numpy-backend kernels hand back numpy scalars

    def _raw(self, x: float) -> float:
        """Value at x, NaN where the body is not finite."""
        ks, code, operands = self.program()
        return ks.eval_one(code, operands, x)

    def _invert_error(self, status, target, tol):
        """The package exception for a failed solve; ``target`` names
        the value that was inverted."""
        if status == kernels.STATUS_RANGE:
            return RangeError(
                f"{target} is outside the value range of {self.label!r} on {self.domain}"
            )
        if status == kernels.STATUS_BUDGET:
            return ConvergenceError(
                f"inversion of {self.label!r} did not reach tol = {tol}"
                f" within {INVERT_BUDGET} steps"
            )
        return EvalError(f"{self.label!r} is not finite inside {self.domain}")

    def affine(self, a: float, b: float) -> "Generator":
        """The generator a*g + b; a must be positive to preserve growth."""
        a = float(a)
        b = float(b)
        if not a > 0.0:
            raise ValueError("affine image of a generator needs a > 0")
        label = f"{a!r}*({self.label}) + {b!r}"
        if self.tape is not None:
            return Generator(self.domain, tape=self.tape.affine(a, b), label=label, validate=False)
        base = self.fn
        return Generator(
            self.domain, fn=lambda x: a * base(x) + b, label=label, validate=False
        )

    def value_interval(self) -> Interval:
        """The (closed) range of the generator over the inset interior."""
        lo = self.eval_inside(self.domain.lo)
        hi = self.eval_inside(self.domain.hi)
        return Interval(lo, hi, lo_open=False, hi_open=False)

    def __repr__(self):
        kind = "tape" if self.tape is not None else "callable"
        return f"Generator({self.label!r} on {self.domain}, {kind})"


def inverse_generator(g: Generator) -> Generator:
    """The inverse of g, as a generator on g's value range.

    Callable-backed: every evaluation is a bracketed solve.  Meant for
    composing checks, not hot loops.
    """
    rng = g.value_interval()
    return Generator.from_callable(g.invert, rng, label=f"inv[{g.label}]")


def check_monotone(g: Generator) -> MonotonicityReport:
    """Grid check for strict growth on MONOTONE_GRID points.  Never raises.

    Non-finite values fail the check too, with the offending point
    doubled as the witness pair.
    """
    xs = g.domain.grid(MONOTONE_GRID)
    vs = g.eval_grid(xs)
    for i in range(MONOTONE_GRID):
        if not math.isfinite(vs[i]):
            x = float(xs[i])
            return MonotonicityReport(False, MONOTONE_GRID, (x, x), "non-finite")
    for i in range(MONOTONE_GRID - 1):
        if vs[i] >= vs[i + 1]:
            return MonotonicityReport(
                False, MONOTONE_GRID, (float(xs[i]), float(xs[i + 1])), "not increasing"
            )
    return MonotonicityReport(True, MONOTONE_GRID)


def affine_fit(f: Generator, g: Generator) -> tuple[float, float, float]:
    """Least-squares fit g ~ a*f + b on a shared grid of AFFINE_FIT_GRID
    points.

    Returns (a, b, residual) with residual the maximum absolute deviation
    over the grid.  Raises DegenerateError when f is numerically constant
    on the grid, since no slope is identifiable then.
    """
    if f.domain != g.domain:
        raise ValueError("affine_fit needs generators on the same interval")
    xs = f.domain.grid(AFFINE_FIT_GRID)
    fv = f.eval_grid(xs)
    gv = g.eval_grid(xs)
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
        raise EvalError("affine_fit hit a non-finite value on the sample grid")
    spread = float(fv.max() - fv.min())
    if spread < _DEGENERATE_SPREAD * max(1.0, float(np.abs(fv).max())):
        raise DegenerateError(f"{f.label!r} is numerically constant; no affine fit")
    design = np.column_stack([fv, np.ones_like(fv)])
    coeff, *_ = np.linalg.lstsq(design, gv, rcond=None)
    a, b = float(coeff[0]), float(coeff[1])
    residual = float(np.max(np.abs(design @ coeff - gv)))
    return a, b, residual


class GeneratorSystem:
    """An ordered tuple of n >= 2 generators on one shared interval."""

    __slots__ = ("generators", "domain", "_sum", "_pack")

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
        self._pack = None

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def label(self) -> str:
        return ",".join(g.label for g in self.generators)

    @property
    def is_tape_backed(self) -> bool:
        return all(g.is_tape_backed for g in self.generators)

    def sum_generator(self) -> Generator:
        """The pointwise sum f1 + ... + fn, itself strictly increasing."""
        if self._sum is None:
            self._sum = sum_generators(self.generators)
        return self._sum

    def tape_pack(self):
        """(codes, operands, offsets, sum_tape) for the system kernels,
        or None when any member is callable-backed."""
        if not self.is_tape_backed:
            return None
        if self._pack is None:
            codes, operands, offsets = pack_tapes([g.tape for g in self.generators])
            self._pack = (codes, operands, offsets, self.sum_generator().tape)
        return self._pack

    def program(self):
        """(family, codes, operands, offsets, sum_code, sum_operands) for
        the kernels ``gqam`` and ``cyclic_gauss``: ``kernels.ACTIVE``,
        read at call time, over ``tape_pack()``, or, when any member is
        callable-backed, ``kernels.CALLABLE`` over the members' ``_raw``
        and the sum generator's program."""
        pack = self.tape_pack()
        if pack is not None:
            codes, operands, offsets, total = pack
            return kernels.ACTIVE, codes, operands, offsets, total.code, total.operands
        _, sum_code, _ = self.sum_generator().program()
        bodies = tuple(g._raw for g in self.generators)
        return kernels.CALLABLE, bodies, None, np.arange(self.n + 1), sum_code, None

    def affine(self, a: float, offsets: Sequence[float]) -> "GeneratorSystem":
        """Member-wise images a*f_i + b_i with one shared slope."""
        if len(offsets) != self.n:
            raise ValueError("need one offset per generator")
        return GeneratorSystem(
            [g.affine(a, b) for g, b in zip(self.generators, offsets)]
        )

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __getitem__(self, idx):
        return self.generators[idx]

    def __repr__(self):
        return f"GeneratorSystem([{self.label}] on {self.domain})"


def sum_generators(generators) -> Generator:
    """Pointwise sum of generators on one interval.

    A sum of strictly increasing functions is strictly increasing, so the
    grid check is skipped.
    """
    gens = tuple(generators.generators if isinstance(generators, GeneratorSystem) else generators)
    if not gens:
        raise ValueError("sum_generators needs at least one generator")
    domain = gens[0].domain
    for g in gens[1:]:
        if g.domain != domain:
            raise ValueError("summed generators must share one interval")
    label = " + ".join(g.label for g in gens)
    if all(g.is_tape_backed for g in gens):
        return Generator(domain, tape=tape_sum([g.tape for g in gens]), label=label, validate=False)
    parts = [g._raw for g in gens]

    def body(x, parts=parts):
        s = 0.0
        for p in parts:
            s += p(x)
        return s

    return Generator(domain, fn=body, label=label, validate=False)


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
