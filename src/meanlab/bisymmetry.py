"""Functional-equation verifiers on rectangular input grids.

Three equations, each decided by ``means.agrees`` at a stated tolerance:

  bisymmetry            M(M(rows)) = M(M(columns)), one mean throughout
  generalized           K(M_1(row 1), ..., M_n(row n))
  bisymmetry              = K(M_1(column 1), ..., M_n(column n)), for the
                        cyclic rotations M_i of a mean M and a mean K
  associativity         merging a block of arguments through their own
                        mean must not move the total mean

plus ``characterize``, which bundles the numeric evidence for "is this
mean a generalized quasi-arithmetic mean?" into one verdict.  All of it
is sampling — a pass is consistency evidence, only a failure is a hard
certificate (the witness can be re-evaluated).

The generalized equation is computed once, in ``gbs_for_mean_check``,
for any fixed-arity M, whose rotations M_i are the components of
``cyclic.cyclic_mapping(M)``, the family Gauss iteration runs, and the
K the caller supplies, typically the Gauss composition of that family.
``generalized_bisymmetry_check`` is its identity form: M is the
generalized quasi-arithmetic mean of a system and K the quasi-arithmetic
mean of f1+...+fn, the composition in closed form.  Both report inner
mean i on column i as lhs and inner mean i on row i as rhs.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .cyclic import cyclic_mapping, fixed_arity, rotation_base
from .errors import ConvergenceError, DomainError, MeanlabError
# gauss_iterate and qam_eval are not called here; the names stay because
# the benchmark's tracer swaps them in this module
from .gauss import DEFAULT_GAP_TOL, GaussComposition, gauss_iterate  # noqa: F401
from .generator import Generator, GeneratorSystem
from .interval import Interval, seeded_rng
from .logs import log
from .means import (
    GeneralizedQuasiArithmeticMean,
    Mean,
    QuasiArithmeticMean,
    agrees,
    qam_eval,  # noqa: F401
    reflexivity_check,
)

EQUATION_TOL = 1e-9  # default of bisymmetry_check and associativity_check
GBS_TOL = 1e-7  # default of the generalized checks and characterize
CHARACTERIZE_TRIALS = 1000  # random matrices of the witness search
CHARACTERIZE_MAX_ITER = 4000  # Gauss budget of characterize's composed limit

# fixed settings of ``characterize``
LATTICE_POINTS = 3          # lattice values per matrix entry
LATTICE_CAP = 128           # lattice matrices tried before the random ones
PROBE_COUNT = 24            # random vectors per continuity/growth probe
REFLEXIVITY_GRID = 16       # diagonal points of the reflexivity scan
WITNESS_FACTOR = 10.0       # sides that disagree at factor*tol are a witness
CONTINUITY_DELTA = 1e-5
LIPSCHITZ_BOUND = 1e3
MONOTONE_STEP = 1e-4
MONOTONE_SLACK = 1e-10

# Entries x[i][j]; row index first.  Validated, not wrapped in a class.
InputMatrix = tuple[tuple[float, ...], ...]


def validate_matrix(matrix, domain: Interval, n: int | None = None) -> InputMatrix:
    """Normalize to a square tuple-of-tuples, n x n when ``n`` is given,
    with every entry in the interval; ValueError for any other shape,
    DomainError for an entry outside."""
    out = []
    for r, row in enumerate(matrix):
        vals = tuple(float(v) for v in row)
        out.append(vals)
        for c, v in enumerate(vals):
            if not domain.contains(v):
                raise DomainError(
                    f"entry ({r}, {c}) = {v} is outside {domain}"
                )
    if not out:
        raise ValueError("matrix is empty")
    size = len(out) if n is None else n
    if len(out) != size or any(len(row) != size for row in out):
        raise ValueError(f"expected a square {size}x{size} matrix,"
                         f" got rows of lengths {[len(row) for row in out]}")
    return tuple(out)


def random_matrix(rng, domain: Interval, n: int) -> InputMatrix:
    """An n x n matrix of independent samples from the interval, drawn
    by ``rng`` through ``Interval.sample``, as a tuple of row tuples."""
    m = domain.sample(rng, (n, n))
    return tuple(tuple(float(v) for v in row) for row in m)


class EquationReport(NamedTuple):
    equation: str
    lhs: float
    rhs: float
    residual: float
    passed: bool
    tol: float
    matrix: InputMatrix | None = None
    point: tuple | None = None


def _report(equation, lhs, rhs, tol, matrix=None, point=None) -> EquationReport:
    # the inputs' scale: the largest |entry| of the matrix, or of the two
    # blocks of an associativity point
    scale = max(abs(v) for block in (matrix or point) for v in block)
    return EquationReport(
        equation=equation,
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs),
        passed=agrees(lhs, rhs, tol, scale),
        tol=tol,
        matrix=matrix,
        point=point,
    )


def bisymmetry_check(mean: Mean, matrix, tol: float = EQUATION_TOL) -> EquationReport:
    """One mean, both nestings: aggregate rows first on the left,
    columns first on the right."""
    # validate_matrix checks every entry, so the inner means evaluate the
    # rows and columns directly; the outer mean checks their outputs
    m = validate_matrix(matrix, mean.domain, mean.arity)
    lhs = mean([mean._evaluate(list(row)) for row in m])
    rhs = mean([mean._evaluate(list(column)) for column in zip(*m)])
    return _report("bisymmetry", lhs, rhs, tol, matrix=m)


def generalized_bisymmetry_check(system: GeneratorSystem, matrix,
                                 tol: float = GBS_TOL) -> EquationReport:
    """Identity form for a generator system: the outer mean comes from
    the summed generators, the inner means are the cyclic rotations of
    the system's own mean.  Holds for every system; sides that disagree
    at tol indicate a numerical problem, not a mathematical one.
    """
    return gbs_for_mean_check(GeneralizedQuasiArithmeticMean(system),
                              QuasiArithmeticMean(system.sum_generator()), matrix, tol)


def gbs_for_mean_check(mean: Mean, composition: Mean, matrix,
                       tol: float = GBS_TOL) -> EquationReport:
    """The equation for a fixed-arity mean M and the composed limit mean
    K the caller supplies: lhs K(M_1(column 1), ..., M_n(column n)), rhs
    K(M_1(row 1), ..., M_n(row n)), for the rotations M_i of M in
    ``cyclic_mapping(M)``, which refuses a variadic M.  A Gauss
    composition over the rotations of M hands them through.
    """
    if (isinstance(composition, GaussComposition)
            and rotation_base(composition.mapping.components) is mean):
        comps = composition.mapping.components
    else:
        comps = cyclic_mapping(mean).components
    m = validate_matrix(matrix, mean.domain, len(comps))
    # the entries are checked; only K checks the inner means' outputs
    rows = composition([c._evaluate(list(row)) for c, row in zip(comps, m)])
    columns = composition([c._evaluate(list(column)) for c, column in zip(comps, zip(*m))])
    return _report("generalized-bisymmetry", columns, rows, tol, matrix=m)


def associativity_check(f: Generator, xs: Sequence[float], ys: Sequence[float],
                        tol: float = EQUATION_TOL) -> EquationReport:
    """Replacing a block of arguments by their own mean (repeated to
    keep the count) must leave the overall mean unchanged."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs or not ys:
        raise ValueError("associativity needs nonempty blocks")
    mean = QuasiArithmeticMean(f)
    lhs = mean(xs + ys)
    # that call checked every point, and y lies in [min ys, max ys]
    y = mean._evaluate(list(ys))
    rhs = mean._evaluate(xs + [y] * len(ys))
    return _report("associativity", lhs, rhs, tol, point=(tuple(xs), tuple(ys)))


class CharacterizationVerdict(NamedTuple):
    """Outcome of the evidence pipeline.

    ``phases`` lists (name, passed) in execution order; every phase runs
    even after a failure, so a mean that breaks monotonicity still gets
    searched for an equation witness.  ``consistent`` means no phase
    failed.  Failures carry whichever witness the phase produces.
    """

    consistent: bool
    tolerance: float
    phases: tuple
    failed_conditions: tuple
    witness_matrix: InputMatrix | None
    witness_residual: float | None
    witness_point: tuple | None
    trials_run: int
    notes: str

    def summary(self) -> str:
        if self.consistent:
            return (
                "consistent with a generalized quasi-arithmetic mean at"
                f" tolerance {self.tolerance:g} (numeric evidence, not a proof)"
            )
        return f"refuted: failed {', '.join(self.failed_conditions)}"


def _probe_vectors(domain: Interval, n: int, rng) -> list:
    return [domain.sample(rng, n) for _ in range(PROBE_COUNT)]


def _first_bad_nudge(mean, vectors, step, bad):
    """The first (vector, coordinate) at which raising that coordinate by
    ``step`` moves the mean by an amount ``bad`` rejects, or None."""
    for vec in vectors:
        base = mean(vec)
        for k in range(len(vec)):
            if not mean.domain.contains(vec[k] + step):
                continue
            bumped = list(vec)
            bumped[k] += step
            if bad(mean(bumped) - base):
                return tuple(vec), k
    return None


def _search_matrices(domain: Interval, n: int, rng, trials: int):
    """The witness search's n x n matrices: the first LATTICE_CAP of the
    lattice over LATTICE_POINTS grid values, then ``trials`` random ones
    drawn by generators spawned from ``rng``."""
    values = domain.grid(LATTICE_POINTS)
    for flat in itertools.islice(itertools.product(values, repeat=n * n), LATTICE_CAP):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))
    for child in rng.spawn(trials):
        yield random_matrix(child, domain, n)


class _KeptComposition(GaussComposition):
    """A Gauss composition for one ``characterize`` call, whose lattice
    meets the same K inputs on many sides.  It keeps its limit per
    distinct vector (repr tells -0.0 from 0.0, and a vector whose orbit
    raises is not kept)."""

    __slots__ = ("limits",)

    def __init__(self, *args):
        super().__init__(*args)
        self.limits = {}

    def __call__(self, xs):
        pts = [float(x) for x in xs]
        key = repr(pts)
        if key not in self.limits:
            self.limits[key] = super().__call__(pts)
        return self.limits[key]


def characterize(
    mean: Mean,
    *,
    trials: int = CHARACTERIZE_TRIALS,
    tol: float = GBS_TOL,
    seed: int = 0,
    max_iterations: int = CHARACTERIZE_MAX_ITER,
) -> CharacterizationVerdict:
    """Collect numeric evidence for or against generalized
    quasi-arithmetic structure, at the mean's own arity (2 for a
    variadic mean; pin another with ``cyclic.fixed_arity(mean, n)``).

    Phases, in order: sampled continuity probe (a Lipschitz bound
    stand-in, see notes), per-coordinate strict growth probe,
    reflexivity on a grid, then Gauss composition of the rotation family
    (``composition-convergence`` fails when a rotation fails the strict
    mean probe of ``GaussComposition`` or the composition cannot be
    computed; the witness search is then skipped) and a
    witness search over lattice + random matrices with ``trials`` random
    ones, seeded by ``seed``, at ``WITNESS_FACTOR * tol``.  The composed
    limit runs at most ``max_iterations`` Gauss steps.  Nothing here
    proves consistency; a witness, however, is a checkable refutation.
    """
    n = mean.arity if mean.arity is not None else 2
    # one rotation family: K iterates the rotations the equation evaluates
    pinned = fixed_arity(mean, n)
    dom = mean.domain
    rngs = seeded_rng(seed).spawn(3)
    notes = [
        f"continuity probe is a sampled bound |dM| <= {LIPSCHITZ_BOUND:g}*delta"
        f" with delta = {CONTINUITY_DELTA:g}, heuristic only",
    ]

    # sampled continuity: nudging one coordinate moves the mean boundedly
    jump = _first_bad_nudge(
        mean, _probe_vectors(dom, n, rngs[0]), CONTINUITY_DELTA,
        lambda move: abs(move) > LIPSCHITZ_BOUND * CONTINUITY_DELTA,
    )
    # strict growth in every coordinate
    flat = _first_bad_nudge(
        mean, _probe_vectors(dom, n, rngs[1]), MONOTONE_STEP,
        lambda move: move <= MONOTONE_SLACK,
    )
    # reflexivity on a grid
    reports = (reflexivity_check(mean, x, n) for x in dom.grid(REFLEXIVITY_GRID))
    off_diagonal = next((rep for rep in reports if not rep.passed), None)
    off_point = None if off_diagonal is None else ((off_diagonal.point,) * n, None)
    phases = [
        ("continuity", jump is None),
        ("strict-monotonicity", flat is None),
        ("reflexivity", off_diagonal is None),
    ]

    # composed limit of the rotation family, then the witness search
    trials_run = 0
    witness = None
    try:
        # K's constructor probes every rotation for the strict mean property
        composition = _KeptComposition(cyclic_mapping(pinned), DEFAULT_GAP_TOL, max_iterations)
        failure = None
    except (ValueError, MeanlabError) as exc:
        failure = str(exc)
    if failure is None:
        try:
            # force one evaluation so convergence failures surface here;
            # K keeps its limit for the witness search
            composition(dom.grid(max(2, n))[:n])
        except MeanlabError as exc:
            failure = f"composition did not converge: {exc}"
    if failure is not None:
        notes.append(failure)
        phases.append(("composition-convergence", False))
    else:
        errors = 0
        for m in _search_matrices(dom, n, rngs[2], trials):
            trials_run += 1
            try:
                rep = gbs_for_mean_check(pinned, composition, m, WITNESS_FACTOR * tol)
            except ConvergenceError:
                errors += 1
                continue
            if not rep.passed:
                witness = rep
                break
        if errors:
            notes.append(f"{errors} matrices skipped on convergence failures")
            if errors == trials_run:
                phases.append(("composition-convergence", False))
        phases.append(("generalized-bisymmetry", witness is None))

    failed = tuple(name for name, ok in phases if not ok)
    verdict = CharacterizationVerdict(
        consistent=not failed,
        tolerance=tol,
        phases=tuple(phases),
        failed_conditions=failed,
        witness_matrix=None if witness is None else witness.matrix,
        witness_residual=None if witness is None else witness.residual,
        witness_point=next((w for w in (jump, flat, off_point) if w is not None), None),
        trials_run=trials_run,
        notes="; ".join(notes),
    )
    log(__name__, "info", "characterize[%s]: %s", mean.label, verdict.summary())
    return verdict
