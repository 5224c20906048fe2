"""Gauss iteration: drive a mean-type mapping to its common limit.

Every component of a mapping is a mean, so each step shrinks the spread
max(x) - min(x); iteration stops once the spread drops to ``gap_tol``
times min(1, max|x0|) of the start vector x0, relative below 1, or to a
few ulp of the iterates if that is larger, and the limit is reported as
the midpoint of the final bracket.  The bracket always contains the true
limit, and the midpoint sits much closer than the gap itself, so a
modest gap tolerance already pins the value tightly.  One
loop, ``kernels.make_orbit``, runs every orbit: as the fused
``cyclic_gauss`` kernel of the system's family for the cyclic mapping of
any generalized quasi-arithmetic mean, or uncompiled over
``MeanTypeMapping.apply`` for every other mapping.

``composition_closed_form_check`` is the headline numeric experiment:
iterating the cyclic mapping of a generalized quasi-arithmetic mean must
land on the plain quasi-arithmetic mean of the summed generators.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .cyclic import MeanTypeMapping, cyclic_mapping, rotated
from .errors import ConvergenceError, MeanlabError
from .generator import DEFAULT_INVERT_TOL, INVERT_BUDGET, GeneratorSystem
from .means import (
    GeneralizedQuasiArithmeticMean,
    Mean,
    QuasiArithmeticMean,
    agrees,
    mean_property_check,
)

log = logging.getLogger("meanlab.gauss")

DEFAULT_GAP_TOL = 1e-10
DEFAULT_MAX_ITER = 500
# defaults of composition_closed_form_check, the m1 suite
CHECK_TOL = 1e-7
CHECK_SAMPLES = 100
# The limit is itself a mean of every iterate, so the midpoint of the
# final bracket is within gap/2 of it: a 1e-9 gap pins the limit to
# 5e-10, two orders under the checks' 1e-7 tolerance (relative above 1).
# Linearly contracting systems need the larger budget to close that gap.
CHECK_GAP_TOL = 1e-9
CHECK_MAX_ITER = 2000
SYMMETRY_TOL = 1e-9
VALIDATION_PROBES = 6  # random vectors gauss_composition checks components on


@dataclass(frozen=True, slots=True)
class IterationTrace:
    """Full orbit of one Gauss iteration, starting vector included."""

    iterates: tuple
    gaps: tuple
    converged: bool
    iterations_used: int
    gap_tol: float

    @property
    def last(self) -> tuple:
        return self.iterates[-1]


def midpoint(xs: Sequence[float]) -> float:
    return 0.5 * (min(xs) + max(xs))


def _trace(iterates, gaps, used, converged, gap_tol) -> IterationTrace:
    return IterationTrace(
        iterates=tuple(map(tuple, iterates[: used + 1].tolist())),
        gaps=tuple(gaps[: used + 1].tolist()),
        converged=converged,
        iterations_used=int(used),
        gap_tol=gap_tol,
    )


def gauss_iterate(
    mapping: MeanTypeMapping,
    xs: Sequence[float],
    gap_tol: float = DEFAULT_GAP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, IterationTrace]:
    """Iterate the mapping from xs until the spread closes to gap_tol,
    scaled by min(1, max|xs|) (see ``kernels.make_orbit``).

    Returns (limit, trace).  Raises ConvergenceError carrying the partial
    trace when max_iter steps are not enough; a step that fails inside a
    component raises that component's exception, without a trace.
    Raises ValueError when gap_tol is not finite or is below 0, and
    MeanlabError when the trace of max_iter steps cannot be allocated.
    """
    pts = [float(x) for x in xs]
    if len(pts) != mapping.arity:
        raise ValueError(f"expected {mapping.arity} points, got {len(pts)}")
    mapping.domain.check_points(pts)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 <= gap_tol < math.inf:
        raise ValueError(f"gap_tol must be finite and at least 0, got {gap_tol}")
    x0 = np.asarray([mapping.domain.clamp(x) for x in pts], dtype=np.float64)
    try:
        iterates = np.empty((max_iter + 1, mapping.arity), dtype=np.float64)
        gaps = np.empty(max_iter + 1, dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise MeanlabError(f"max_iter = {max_iter} is too large to allocate its trace") from None
    if mapping.system is not None:
        ks, *program = mapping.system.program()
        used, status = ks.cyclic_gauss(*program, x0, gap_tol, DEFAULT_INVERT_TOL,
                                       INVERT_BUDGET, max_iter, iterates, gaps)
    else:
        used, status = _orbit(mapping, x0, gap_tol, max_iter, iterates, gaps)
    trace = _trace(iterates, gaps, used, status == kernels.STATUS_OK, gap_tol)
    if status == kernels.STATUS_OK:
        log.debug(
            "%s converged in %d steps (gap %.3e)",
            mapping.label, trace.iterations_used, trace.gaps[-1],
        )
        return midpoint(trace.last), trace
    if used < max_iter:
        # the fused kernel reports only that step used + 1 failed; the
        # components compute that step bit for bit, so replaying it raises
        # exactly what _orbit raises there
        mapping.apply(trace.last)
    stop = gap_tol * min(1.0, float(np.max(np.abs(x0))))  # as kernels.make_orbit scales it
    raise ConvergenceError(
        f"gap {trace.gaps[-1]:.3e} still above {stop} after"
        f" {used} iterations of {mapping.label!r}",
        trace=trace,
    )


def _apply_step(mapping, x, _mn, _mx, out):
    # component exceptions propagate out of the orbit
    out[:] = mapping.apply(x)
    return kernels.STATUS_OK


_orbit = kernels.make_orbit(_apply_step)


class GaussComposition(Mean):
    """The limit of Gauss iteration, packaged as a mean of arity n."""

    __slots__ = ("mapping", "gap_tol", "max_iterations")

    def __init__(
        self,
        mapping: MeanTypeMapping,
        gap_tol: float = DEFAULT_GAP_TOL,
        max_iterations: int = DEFAULT_MAX_ITER,
    ):
        super().__init__(mapping.domain, arity=mapping.arity, label=f"gauss[{mapping.label}]")
        self.mapping = mapping
        self.gap_tol = gap_tol
        self.max_iterations = max_iterations

    def _evaluate(self, pts):
        return gauss_iterate(self.mapping, pts, self.gap_tol, self.max_iterations)[0]

    def trace(self, xs: Sequence[float]) -> IterationTrace:
        return gauss_iterate(self.mapping, xs, self.gap_tol, self.max_iterations)[1]


def gauss_composition(
    mapping: MeanTypeMapping,
    gap_tol: float = DEFAULT_GAP_TOL,
    max_iterations: int = DEFAULT_MAX_ITER,
    validate: bool = True,
) -> GaussComposition:
    """Build the composed mean, first probing that every component
    really behaves like a strict mean (otherwise iteration has no
    business converging and the composition would be garbage)."""
    if validate:
        rng = np.random.default_rng(np.random.SeedSequence(20260816))
        dom = mapping.domain
        w = dom.width
        vectors = [
            [dom.clamp(dom.lo + 0.1 * w + 0.8 * w * k / max(1, mapping.arity - 1))
             for k in range(mapping.arity)]
        ]
        for _ in range(VALIDATION_PROBES):
            vectors.append([float(v) for v in dom.sample(rng, mapping.arity)])
        for comp in mapping.components:
            for vec in vectors:
                report = mean_property_check(comp, vec)
                if not report.passed:
                    raise ValueError(
                        f"component {comp.label!r} fails the mean property at"
                        f" {tuple(vec)}: value {report.value} outside"
                        f" [{report.low}, {report.high}]"
                    )
    return GaussComposition(mapping, gap_tol, max_iterations)


def invariance_residual(candidate: Mean, mapping: MeanTypeMapping,
                        xs: Sequence[float]) -> float:
    """|K(M(xs)) - K(xs)| for a candidate invariant mean K."""
    pts = [float(x) for x in xs]
    return abs(candidate(mapping.apply(pts)) - candidate(pts))


@dataclass(frozen=True, slots=True)
class CompositionCheckReport:
    """Iterated-limit vs closed-form comparison over random vectors."""

    passed: bool
    samples: int
    tol: float
    max_residual: float
    worst_point: tuple | None
    rows: tuple  # (point, iterated, closed_form, residual) per sample
    label: str


def composition_closed_form_check(
    system: GeneratorSystem,
    samples: int = CHECK_SAMPLES,
    tol: float = CHECK_TOL,
    *,
    seed: int = 0,
    gap_tol: float = CHECK_GAP_TOL,
    max_iterations: int = CHECK_MAX_ITER,
) -> CompositionCheckReport:
    """Gauss-iterate the cyclic mapping of the system's mean and compare
    against the quasi-arithmetic mean of the summed generators."""
    mean = GeneralizedQuasiArithmeticMean(system)
    mapping = cyclic_mapping(mean)
    closed = QuasiArithmeticMean(system.sum_generator())
    children = np.random.SeedSequence(seed).spawn(samples)
    rows = []
    worst = -1.0
    worst_point = None
    for child in children:
        rng = np.random.default_rng(child)
        pts = [float(v) for v in system.domain.sample(rng, system.n)]
        left = gauss_iterate(mapping, pts, gap_tol, max_iterations)[0]
        right = closed(pts)
        residual = abs(left - right)
        rows.append((tuple(pts), left, right, residual))
        if residual > worst:
            worst = residual
            worst_point = tuple(pts)
    report = CompositionCheckReport(
        passed=all(agrees(left, right, tol) for _pt, left, right, _res in rows),
        samples=samples,
        tol=tol,
        max_residual=worst,
        worst_point=worst_point,
        rows=tuple(rows),
        label=system.label,
    )
    log.info(
        "closed-form check [%s]: %d samples, max residual %.3e (%s)",
        system.label, samples, worst, "pass" if report.passed else "FAIL",
    )
    return report


@dataclass(frozen=True, slots=True)
class SymmetryCheckReport:
    passed: bool
    samples: int
    tol: float
    max_deviation: float
    worst_point: tuple | None
    worst_rotation: int


def cyclic_symmetry_check(mean_or_system, samples: int = 50) -> SymmetryCheckReport:
    """The composed limit must not care how the start vector is rotated,
    even though each individual component does."""
    if isinstance(mean_or_system, GeneratorSystem):
        mean: Mean = GeneralizedQuasiArithmeticMean(mean_or_system)
    else:
        mean = mean_or_system
    if mean.arity is None:
        raise ValueError("cyclic symmetry needs a fixed-arity mean")
    mapping = cyclic_mapping(mean)
    n = mean.arity
    children = np.random.SeedSequence(0).spawn(samples)
    passed = True
    worst = -1.0
    worst_point = None
    worst_rot = 0
    for child in children:
        rng = np.random.default_rng(child)
        pts = [float(v) for v in mean.domain.sample(rng, n)]
        base = gauss_iterate(mapping, pts, DEFAULT_GAP_TOL, CHECK_MAX_ITER)[0]
        for i in range(1, n):
            other = gauss_iterate(mapping, rotated(pts, i), DEFAULT_GAP_TOL, CHECK_MAX_ITER)[0]
            passed = passed and agrees(other, base, SYMMETRY_TOL)
            dev = abs(other - base)
            if dev > worst:
                worst = dev
                worst_point = tuple(pts)
                worst_rot = i
    return SymmetryCheckReport(
        passed=passed,
        samples=samples,
        tol=SYMMETRY_TOL,
        max_deviation=worst,
        worst_point=worst_point,
        worst_rotation=worst_rot,
    )
