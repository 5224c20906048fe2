"""Gauss iteration: drive a mean-type mapping to its common limit.

Every component of a mapping is a mean, so each step shrinks the spread
max(x) - min(x).  One loop, ``kernels.orbit``, runs every orbit and
ends it, converged, on the first of three tests, and names the test:
the spread drops to ``gap_tol`` times min(1, max|x0|) of the start
vector x0, relative below 1, or to a few ulp of the iterates if that is
larger ("gap"); it stops shrinking within twice those few ulp ("stall");
or successive Shanks estimates of the limit, extrapolated from the
arithmetic means of the iterates, agree ("extrapolated").  The trace
keeps that name as ``IterationTrace.stop``.  The limit is the Shanks
estimate on an extrapolated stop and the midpoint of the final bracket
otherwise.  The bracket always contains the true limit, and the midpoint
sits much closer than the gap itself, so a modest gap tolerance already
pins the value tightly; the estimate lies in the bracket too, and ends
a slowly contracting orbit long before its gap closes.  ``gauss_iterate``
alone chooses how the loop runs, from the mapping's components: as the
fused ``cyclic_gauss`` kernel over the system's program where
``cyclic.rotation_base`` finds them the rotations of a generalized
quasi-arithmetic mean, or over a step that calls
``MeanTypeMapping.apply`` for every other mapping.

``composition_closed_form_check`` is the headline numeric experiment:
iterating the cyclic mapping of a generalized quasi-arithmetic mean must
land on the plain quasi-arithmetic mean of the summed generators.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import kernels
from .cyclic import MeanTypeMapping, cyclic_mapping, rotated, rotation_base
from .errors import ConvergenceError
from .generator import GeneratorSystem
from .interval import seeded_rng
from .logs import log
from .means import (
    GeneralizedQuasiArithmeticMean,
    Mean,
    QuasiArithmeticMean,
    agrees,
    mean_property_check,
)

DEFAULT_GAP_TOL = 1e-10
DEFAULT_MAX_ITER = 500
# defaults of composition_closed_form_check, the m1 suite
CHECK_TOL = 1e-7
CHECK_SAMPLES = 100
# The limit is itself a mean of every iterate, so the midpoint of the
# final bracket is within gap/2 of it: a 1e-9 gap pins the limit to
# 5e-10, two orders under the checks' 1e-7 tolerance (relative above 1);
# a Shanks estimate must agree to 1/100 of that gap and lie in the
# bracket.  Linearly contracting systems need the larger budget to close
# that gap.
CHECK_GAP_TOL = 1e-9
CHECK_MAX_ITER = 2000
SYMMETRY_TOL = 1e-9
VALIDATION_PROBES = 6  # random vectors GaussComposition checks components on


class IterationTrace(NamedTuple):
    """Full orbit of one Gauss iteration, starting vector included, and
    the Shanks estimate of its limit where the orbit ended on one (None
    otherwise).  ``stop`` is the test of ``kernels.orbit`` that ended a
    converged orbit, as the orbit named it: "gap", "stall" or
    "extrapolated" (the Shanks estimate); None when it did not converge,
    so ``converged`` is ``stop is not None``."""

    iterates: tuple
    gaps: tuple
    iterations_used: int
    gap_tol: float
    estimate: float | None = None
    stop: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop is not None

    @property
    def last(self) -> tuple:
        return self.iterates[-1]


def midpoint(xs: Sequence[float]) -> float:
    # the halves summed: min + max may overflow where they do not
    return 0.5 * min(xs) + 0.5 * max(xs)


def gauss_iterate(
    mapping: MeanTypeMapping,
    xs: Sequence[float],
    gap_tol: float = DEFAULT_GAP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, IterationTrace]:
    """Iterate the mapping from xs until the spread closes to gap_tol,
    scaled by min(1, max|xs|), stalls at float resolution, or the orbit's
    Shanks estimates agree (see ``kernels.orbit``).

    The orbit runs on the fused ``cyclic_gauss`` kernel exactly when
    ``rotation_base`` finds the components the rotations of a
    ``GeneralizedQuasiArithmeticMean``, and steps through
    ``mapping.apply`` otherwise; both end alike, bit for bit.

    Returns (limit, trace): the limit is the estimate where there is
    one, the midpoint of the last iterate otherwise; ``trace.stop`` names
    the test that ended the orbit.  Raises ConvergenceError carrying the
    partial trace when max_iter steps are not enough; a step that fails
    inside a component raises that component's exception, without a trace.
    Raises ValueError when gap_tol is not finite or is below 0.
    """
    pts = mapping.checked(xs)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 <= gap_tol < math.inf:
        raise ValueError(f"gap_tol must be finite and at least 0, got {gap_tol}")
    base = rotation_base(mapping.components)
    if isinstance(base, GeneralizedQuasiArithmeticMean):
        used, status, rows, gaps, estimate, stop = kernels.ACTIVE.cyclic_gauss(
            base.system.program(), pts, gap_tol, max_iter)
    else:
        def apply(x, _mn, _mx):
            # component exceptions propagate out of the orbit
            return [float(v) for v in mapping.apply(x)], kernels.STATUS_OK

        used, status, rows, gaps, estimate, stop = kernels.orbit(apply, pts, gap_tol, max_iter)
    trace = IterationTrace(tuple(map(tuple, rows)), tuple(gaps), used, gap_tol, estimate, stop)
    if status == kernels.STATUS_OK:
        log(__name__, "debug", "%s converged in %d steps (%s stop, gap %.3e)",
            mapping.label, used, stop, trace.gaps[-1])
        return midpoint(trace.last) if estimate is None else estimate, trace
    if used < max_iter:
        # the fused kernel reports only that step used + 1 failed; the
        # components run the same kernel routine one rotation each, so
        # replaying the step raises exactly what the generic orbit raises there
        mapping.apply(trace.last)
    bound = kernels.scaled_stop(gap_tol, min(pts), max(pts))
    raise ConvergenceError(
        f"gap {trace.gaps[-1]:.3e} still above {bound} after"
        f" {used} iterations of {mapping.label!r}",
        trace=trace,
    )


class GaussComposition(Mean):
    """The limit of Gauss iteration, packaged as a mean of arity n.

    Building one first probes that every component of the mapping
    really behaves like a strict mean, on a fixed vector and
    VALIDATION_PROBES seeded draws (otherwise iteration has no business
    converging and the composition would be garbage): ValueError names
    the first component that fails ``mean_property_check``.
    """

    __slots__ = ("mapping", "gap_tol", "max_iterations")

    def __init__(
        self,
        mapping: MeanTypeMapping,
        gap_tol: float = DEFAULT_GAP_TOL,
        max_iterations: int = DEFAULT_MAX_ITER,
    ):
        super().__init__(mapping.domain, arity=mapping.arity, label=f"gauss[{mapping.label}]")
        rng = seeded_rng(20260816)
        dom = mapping.domain
        w = dom.width
        vectors = [
            [dom.lo + 0.1 * w + 0.8 * w * k / max(1, mapping.arity - 1)
             for k in range(mapping.arity)]
        ]
        for _ in range(VALIDATION_PROBES):
            vectors.append(dom.sample(rng, mapping.arity))
        for comp in mapping.components:
            for vec in vectors:
                report = mean_property_check(comp, vec)
                if not report.passed:
                    # within the slack of the bounds, only strictness failed
                    inside = report.low - report.slack <= report.value <= report.high + report.slack
                    raise ValueError(
                        f"component {comp.label!r} fails the mean property at"
                        f" {tuple(vec)}: value {report.value}"
                        f" {'sits on a bound of' if inside else 'outside'}"
                        f" [{report.low}, {report.high}]"
                    )
        self.mapping = mapping
        self.gap_tol = gap_tol
        self.max_iterations = max_iterations

    def __call__(self, xs):
        # gauss_iterate converts and checks the points: K checks them once
        return gauss_iterate(self.mapping, xs, self.gap_tol, self.max_iterations)[0]

    _evaluate = __call__


def invariance_residual(candidate: Mean, mapping: MeanTypeMapping,
                        xs: Sequence[float]) -> float:
    """|K(M(xs)) - K(xs)| for a candidate invariant mean K."""
    pts = [float(x) for x in xs]
    return abs(candidate(mapping.apply(pts)) - candidate(pts))


class CompositionCheckReport(NamedTuple):
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
    max_iterations: int = CHECK_MAX_ITER,
) -> CompositionCheckReport:
    """Gauss-iterate the cyclic mapping of the system's mean, to a gap of
    CHECK_GAP_TOL, and compare against the quasi-arithmetic mean of the
    summed generators."""
    mean = GeneralizedQuasiArithmeticMean(system)
    mapping = cyclic_mapping(mean)
    closed = QuasiArithmeticMean(system.sum_generator())
    rows = []
    worst = -1.0
    worst_point = None
    for rng in seeded_rng(seed).spawn(samples):
        pts = system.domain.sample(rng, system.n)
        left = gauss_iterate(mapping, pts, CHECK_GAP_TOL, max_iterations)[0]
        right = closed(pts)
        residual = abs(left - right)
        rows.append((tuple(pts), left, right, residual))
        if residual > worst:
            worst = residual
            worst_point = tuple(pts)
    report = CompositionCheckReport(
        passed=all(agrees(left, right, tol, max(map(abs, pt))) for pt, left, right, _res in rows),
        samples=samples,
        tol=tol,
        max_residual=worst,
        worst_point=worst_point,
        rows=tuple(rows),
        label=system.label,
    )
    log(__name__, "info", "closed-form check [%s]: %d samples, max residual %.3e (%s)",
        system.label, samples, worst, "pass" if report.passed else "FAIL")
    return report


class SymmetryCheckReport(NamedTuple):
    passed: bool
    samples: int
    tol: float
    max_deviation: float
    worst_point: tuple | None
    worst_rotation: int


def cyclic_symmetry_check(mean: Mean, samples: int = 50) -> SymmetryCheckReport:
    """The composed limit must not care how the start vector is rotated,
    even though each individual component does; ``mean`` has a fixed
    arity, which ``cyclic_mapping`` requires."""
    mapping = cyclic_mapping(mean)
    n = mapping.arity
    passed = True
    worst = -1.0
    worst_point = None
    worst_rot = 0
    for rng in seeded_rng(0).spawn(samples):
        pts = mean.domain.sample(rng, n)
        base = gauss_iterate(mapping, pts, DEFAULT_GAP_TOL, CHECK_MAX_ITER)[0]
        for i in range(1, n):
            other = gauss_iterate(mapping, rotated(pts, i), DEFAULT_GAP_TOL, CHECK_MAX_ITER)[0]
            passed = passed and agrees(other, base, SYMMETRY_TOL, max(map(abs, pts)))
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
