"""Quasi-arithmetic means and their generalized, per-coordinate form.

Two classes evaluate them:

    QuasiArithmeticMean(f)            f^{-1}((f(x1)+...+f(xk))/k)   any arity k
    GeneralizedQuasiArithmeticMean(S) (f1+...+fn)^{-1}(f1(x1)+...+fn(xn))
                                                                  fixed arity n

with every inversion bracketed by [min xs, max xs]: monotonicity of the
generators pins the result inside the input range, which both guarantees
a bracket and makes reflexivity exact (constant input short-circuits at
the bracket endpoint).  The points are evaluated exactly where the
caller gives them, anywhere in the open interval; a generator that is
not finite at one of them is an EvalError.  Both run the one solve that
``dsl.compiler`` emits, with a tree inlined: the first through
``Generator.invert_on``, whose ``kernels.invert`` runs the solve of f's
tree, the second as one call of ``kernels.ACTIVE.gqam`` on the system's
program, its Gauss step, whose solve has the sum of the members inlined: the mean is the first rotation of that step, so it
evaluates every member at every point and is an EvalError where any of
them is not finite.

``checked_vector`` is the one vector check (floats, arity, at least one
point, inside the domain): ``Mean.__call__`` runs it on every call, and
``cyclic.MeanTypeMapping.checked`` on a mapping's vector; ``_evaluate``
computes on points so checked.  ``qam_eval(f, xs)`` and
``gqam_eval(S, xs)`` are one-shot checked entries: a call of a fresh
mean of each class.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from . import kernels
from .generator import Generator, GeneratorSystem, affine_fit
from .interval import Interval, seeded_rng

# Slack applied to mean bound comparisons, scaled by max(|min|, |max|) of the inputs.
BOUND_SLACK = 1e-9
# Bounds are only tested strictly when the inputs spread wider than this
# fraction of max(|min|, |max|).
STRICTNESS_SPREAD = 1e-6
REFLEXIVITY_TOL = 1e-9
EQUALITY_FIT_THRESHOLD = 1e-6
EQUALITY_PROBES = 50  # random vectors the equality checks evaluate both means on
QAM_PROBE_ARITY = 2  # length of those vectors for a single generator
BLEND_TOP_WEIGHT = 0.7  # minmax_blend's weight on max


def agrees(lhs: float, rhs: float, tol: float, scale: float) -> bool:
    """The verdict of every identity check: the two sides agree when
    |lhs - rhs| <= tol * max(|rhs|, min(1, scale)), with ``scale`` the
    largest |input| of the sample.  The test is relative to |rhs| at
    every scale; the floor tol * min(1, scale), the orbit's own
    ``kernels.scaled_stop``, serves a limit at or near 0, and where an
    input reaches 1 in magnitude it is tol * max(1, |rhs|)."""
    return abs(lhs - rhs) <= tol * max(abs(rhs), min(1.0, scale))


def checked_vector(xs: Sequence[float], domain: Interval, arity: int | None,
                   label: str) -> list:
    """The one vector check of a mean or a mapping: xs as a new list of
    floats, ``arity`` of them (any number where it is None), at least
    one, and every one inside ``domain``.  ValueError for the count,
    naming ``label``; DomainError (``Interval.check_points``) for the
    first point outside."""
    pts = [float(x) for x in xs]
    if arity is not None and len(pts) != arity:
        raise ValueError(f"{label!r} expects {arity} points, got {len(pts)}")
    if not pts:
        raise ValueError(f"{label!r} needs at least one point")
    domain.check_points(pts)
    return pts


class Mean:
    """A mean as a validated callable on vectors from its domain.

    ``arity`` None means variadic.  ``__call__`` converts and checks the
    points with ``checked_vector``; subclasses implement ``_evaluate``,
    which gets checked floats (as many as the arity takes, at least one,
    inside the domain) in a list of its own, free to change.  Code that has checked a vector
    already may call ``_evaluate`` directly, with a copy per mean.
    """

    __slots__ = ("domain", "arity", "label")

    def __init__(self, domain: Interval, arity: int | None = None, label: str = "mean"):
        if arity is not None and arity < 1:
            raise ValueError("arity must be at least 1")
        self.domain = domain
        self.arity = arity
        self.label = label

    def __call__(self, xs: Sequence[float]) -> float:
        return self._evaluate(checked_vector(xs, self.domain, self.arity, self.label))

    def _evaluate(self, pts: list[float]) -> float:
        raise NotImplementedError

    def __repr__(self):
        arity = "variadic" if self.arity is None else f"arity {self.arity}"
        return f"<{type(self).__name__} {self.label!r}, {arity}, on {self.domain}>"


class QuasiArithmeticMean(Mean):
    """Variadic mean generated by a single generator."""

    __slots__ = ("generator",)

    def __init__(self, generator: Generator):
        super().__init__(generator.domain, arity=None, label=f"qam[{generator.label}]")
        self.generator = generator

    def _evaluate(self, pts):
        f = self.generator
        s = 0.0
        for x in pts:
            s += f.eval_inside(x)
        return f.invert_on(s / len(pts), min(pts), max(pts))


class GeneralizedQuasiArithmeticMean(Mean):
    """Fixed-arity mean with one generator per coordinate."""

    __slots__ = ("system",)

    def __init__(self, system: GeneratorSystem):
        super().__init__(system.domain, arity=system.n, label=f"gqam[{system.label}]")
        self.system = system

    def _evaluate(self, pts):
        system = self.system
        v, status = kernels.ACTIVE.gqam(system.program(), pts)
        if status != kernels.STATUS_OK:
            # the kernel solved for the sum of the members at pts
            target = f"the sum of [{system.label}] at {pts}"
            raise system.sum_generator()._invert_error(status, target)
        return v


def qam_eval(f: Generator, xs: Sequence[float]) -> float:
    """Quasi-arithmetic mean generated by f, at any arity >= 1."""
    return QuasiArithmeticMean(f)(xs)


def gqam_eval(system: GeneratorSystem, xs: Sequence[float]) -> float:
    """Generalized quasi-arithmetic mean of the system, one generator per
    coordinate."""
    return GeneralizedQuasiArithmeticMean(system)(xs)


class FunctionMean(Mean):
    """Mean defined directly by a Python evaluator."""

    __slots__ = ("evaluator",)

    def __init__(self, evaluator: Callable[[list[float]], float], domain: Interval,
                 arity: int | None = None, label: str = "mean"):
        super().__init__(domain, arity=arity, label=label)
        self.evaluator = evaluator

    def _evaluate(self, pts):
        return float(self.evaluator(pts))


def arithmetic_mean(domain: Interval) -> FunctionMean:
    return FunctionMean(lambda pts: sum(pts) / len(pts), domain, label="AM")


def geometric_mean(domain: Interval) -> FunctionMean:
    if domain.lo < 0.0:
        raise ValueError("geometric mean needs a non-negative interval")

    def gm(pts):
        s = 0.0
        for x in pts:
            s += math.log(x)
        return math.exp(s / len(pts))

    return FunctionMean(gm, domain, label="GM")


def lehmer_mean(domain: Interval) -> FunctionMean:
    """The contraharmonic mean (x1^2+...+xk^2)/(x1+...+xk), the Lehmer
    mean of exponent 2; not quasi-arithmetic, which makes it the stock
    refutation example for the characterizer."""
    if domain.lo < 0.0:
        raise ValueError("Lehmer mean needs a non-negative interval")

    def lm(pts):
        num = 0.0
        den = 0.0
        for x in pts:
            num += x**2.0
            den += x
        return num / den

    return FunctionMean(lm, domain, label="lehmer2")


def minmax_blend(domain: Interval) -> FunctionMean:
    """The min/max blend with weight BLEND_TOP_WEIGHT on max: reflexive,
    continuous and strictly increasing, yet not bisymmetric."""
    def blend(pts):
        return (1.0 - BLEND_TOP_WEIGHT) * min(pts) + BLEND_TOP_WEIGHT * max(pts)

    return FunctionMean(blend, domain, label=f"blend{BLEND_TOP_WEIGHT:g}")


class MeanPropertyReport(NamedTuple):
    """Bounds check min <= M(xs) <= max with slack BOUND_SLACK times
    max(|min|, |max|), relative to the inputs at every scale, plus
    strictness, min < M(xs) < max exactly, when the inputs spread wider
    than STRICTNESS_SPREAD times max(|min|, |max|)."""

    passed: bool
    value: float
    low: float
    high: float
    slack: float
    strict_checked: bool
    strict_ok: bool | None


def mean_property_check(mean: Mean, xs: Sequence[float]) -> MeanPropertyReport:
    pts = [float(x) for x in xs]
    v = mean(pts)
    lo = min(pts)
    hi = max(pts)
    s = BOUND_SLACK * max(abs(lo), abs(hi))
    bounds_ok = (lo - s <= v) and (v <= hi + s)
    strict_checked = hi - lo > STRICTNESS_SPREAD * max(abs(lo), abs(hi))
    strict_ok = lo < v < hi if strict_checked else None
    passed = bounds_ok and (strict_ok is not False)
    return MeanPropertyReport(passed, v, lo, hi, s, strict_checked, strict_ok)


class ReflexivityReport(NamedTuple):
    passed: bool
    point: float
    value: float
    deviation: float
    tol: float


def reflexivity_check(mean: Mean, x: float, count: int | None = None) -> ReflexivityReport:
    """M(x,...,x) agrees with x to REFLEXIVITY_TOL; ``count`` copies of
    x, by default the mean's arity or 2."""
    x = float(x)
    k = count if count is not None else (mean.arity if mean.arity is not None else 2)
    v = mean([x] * k)
    return ReflexivityReport(agrees(v, x, REFLEXIVITY_TOL, abs(x)), x, v, abs(v - x),
                             REFLEXIVITY_TOL)


class EqualityReport(NamedTuple):
    """Do two generators (or systems) induce the same mean?

    Built on affine fitting: a mean is unchanged exactly under positive
    affine images of its generator, with one shared slope across a
    system.  ``max_value_gap`` is direct evidence from evaluating both
    means on probe vectors.
    """

    equal: bool
    slopes: tuple[float, ...]
    offsets: tuple[float, ...]
    fit_residuals: tuple[float, ...]
    max_value_gap: float
    gap_point: tuple[float, ...]
    threshold: float


def _equality(pairs, mean_a, mean_b, arity, probes, seed, threshold) -> EqualityReport:
    """Affine fits of each (f, g) pair, the common-slope test, and the
    largest gap between the means ``mean_a`` and ``mean_b`` on ``probes``
    seeded random vectors of length ``arity`` from the generators' interval."""
    slopes, offsets, residuals = zip(*(affine_fit(f, g) for f, g in pairs))
    common_slope = all(agrees(a, slopes[0], threshold, abs(slopes[0])) for a in slopes)
    rng = seeded_rng(seed)
    worst = -1.0
    worst_pt = None
    for _ in range(probes):
        pts = pairs[0][0].domain.sample(rng, arity)
        gap = abs(mean_a(pts) - mean_b(pts))
        if gap > worst:
            worst = gap
            worst_pt = tuple(pts)
    return EqualityReport(
        equal=common_slope and all(r <= threshold for r in residuals),
        slopes=slopes,
        offsets=offsets,
        fit_residuals=residuals,
        max_value_gap=worst,
        gap_point=worst_pt,
        threshold=threshold,
    )


def qam_equality_check(f: Generator, g: Generator, *, probes: int = EQUALITY_PROBES,
                       seed: int = 0,
                       threshold: float = EQUALITY_FIT_THRESHOLD) -> EqualityReport:
    """Two generators induce one mean exactly when g is a positive
    affine image of f; the one-pair case of the system check."""
    return _equality([(f, g)], QuasiArithmeticMean(f), QuasiArithmeticMean(g),
                     QAM_PROBE_ARITY, probes, seed, threshold)


def gqam_equality_check(first: GeneratorSystem, second: GeneratorSystem, *,
                        probes: int = EQUALITY_PROBES, seed: int = 0,
                        threshold: float = EQUALITY_FIT_THRESHOLD) -> EqualityReport:
    """Systems induce one mean exactly when the members match pairwise
    under affine images with a single common slope."""
    if first.n != second.n:
        raise ValueError("systems must have the same length")
    return _equality(list(zip(first.generators, second.generators)),
                     GeneralizedQuasiArithmeticMean(first), GeneralizedQuasiArithmeticMean(second),
                     first.n, probes, seed, threshold)
