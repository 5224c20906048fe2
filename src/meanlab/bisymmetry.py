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

The generalized equation is computed once, in ``_gbs_sides``.
``gbs_for_mean_check`` takes any fixed-arity M and the K the caller
supplies, typically the Gauss composition of M's rotations.  Its
instance ``generalized_bisymmetry_check`` is the identity form: M is the
generalized quasi-arithmetic mean of a system and K the quasi-arithmetic
mean of f1+...+fn, the composition in closed form.  The two report the
sides in opposite orientations, pinned by tests with lopsided matrices:

  generalized_bisymmetry_check   lhs: inner mean i on column i
                                 rhs: inner mean i on row i
  gbs_for_mean_check             lhs: inner mean i on row i
                                 rhs: inner mean i on column i
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cyclic import cyclic_mapping, fixed_arity, permuted_mean
from .errors import ConvergenceError, DomainError, MeanlabError
from .gauss import DEFAULT_GAP_TOL, GaussComposition, gauss_iterate
from .generator import Generator, GeneratorSystem
from .interval import Interval
from .means import (
    GeneralizedQuasiArithmeticMean,
    Mean,
    QuasiArithmeticMean,
    agrees,
    qam_eval,
    reflexivity_check,
)

log = logging.getLogger("meanlab.bisymmetry")

EQUATION_TOL = 1e-9  # default of bisymmetry_check and associativity_check
GBS_TOL = 1e-7  # default of the generalized checks and characterize
CHARACTERIZE_TRIALS = 1000  # random matrices of the witness search

# fixed settings of ``characterize``
LATTICE_POINTS = 3          # lattice values per matrix entry
WITNESS_FACTOR = 10.0       # sides that disagree at factor*tol are a witness
CONTINUITY_DELTA = 1e-5
LIPSCHITZ_BOUND = 1e3
MONOTONE_STEP = 1e-4
MONOTONE_SLACK = 1e-10

# Entries x[i][j]; row index first.  Validated, not wrapped in a class.
InputMatrix = tuple[tuple[float, ...], ...]


def validate_matrix(matrix, domain: Interval, rows: int | None = None,
                    cols: int | None = None) -> InputMatrix:
    """Normalize to a rectangular tuple-of-tuples with every entry in
    the interval; DomainError otherwise."""
    out = []
    for r, row in enumerate(matrix):
        vals = tuple(float(v) for v in row)
        out.append(vals)
        if len(vals) != len(out[0]):
            raise ValueError("matrix rows have unequal lengths")
        for c, v in enumerate(vals):
            if not domain.contains(v):
                raise DomainError(
                    f"entry ({r}, {c}) = {v} is outside {domain}"
                )
    if not out:
        raise ValueError("matrix is empty")
    if rows is not None and len(out) != rows:
        raise ValueError(f"expected {rows} rows, got {len(out)}")
    if cols is not None and len(out[0]) != cols:
        raise ValueError(f"expected {cols} columns, got {len(out[0])}")
    return tuple(out)


def random_matrix(rng: np.random.Generator, domain: Interval, n: int) -> InputMatrix:
    """An n x n matrix of independent samples from the interval."""
    m = domain.sample(rng, (n, n))
    return tuple(tuple(float(v) for v in row) for row in m)


def _column(matrix: InputMatrix, j: int) -> tuple:
    return tuple(row[j] for row in matrix)


@dataclass(frozen=True, slots=True)
class EquationReport:
    equation: str
    lhs: float
    rhs: float
    residual: float
    passed: bool
    tol: float
    matrix: InputMatrix | None = None
    point: tuple | None = None


def _report(equation, lhs, rhs, tol, matrix=None, point=None) -> EquationReport:
    return EquationReport(
        equation=equation,
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs),
        passed=agrees(lhs, rhs, tol),
        tol=tol,
        matrix=matrix,
        point=point,
    )


def bisymmetry_check(mean: Mean, matrix, tol: float = EQUATION_TOL) -> EquationReport:
    """One mean, both nestings: aggregate rows first on the left,
    columns first on the right."""
    m = validate_matrix(matrix, mean.domain)
    n = len(m)
    if len(m[0]) != n:
        raise ValueError("bisymmetry needs a square matrix")
    if mean.arity is not None and mean.arity != n:
        raise ValueError(f"mean {mean.label!r} has arity {mean.arity}, matrix is {n}x{n}")
    lhs = mean([mean(row) for row in m])
    rhs = mean([mean(_column(m, j)) for j in range(n)])
    return _report("bisymmetry", lhs, rhs, tol, matrix=m)


def _gbs_sides(mean: Mean, composition: Mean, m: InputMatrix) -> tuple[float, float]:
    """(K(M_i(row i))_i, K(M_i(column i))_i) on a validated n x n matrix,
    for the rotations M_i of ``mean`` and the composition K."""
    n = len(m)
    comps = [permuted_mean(mean, i) for i in range(n)]
    rows = composition([comps[i](m[i]) for i in range(n)])
    columns = composition([comps[i](_column(m, i)) for i in range(n)])
    return rows, columns


def generalized_bisymmetry_check(system: GeneratorSystem, matrix,
                                 tol: float = GBS_TOL) -> EquationReport:
    """Identity form for a generator system: the outer mean comes from
    the summed generators, the inner means are the cyclic rotations of
    the system's own mean.  Holds for every system; sides that disagree
    at tol indicate a numerical problem, not a mathematical one.

    Column/row orientation: inner mean i reads column i on the lhs.
    """
    m = validate_matrix(matrix, system.domain, rows=system.n, cols=system.n)
    rows, columns = _gbs_sides(GeneralizedQuasiArithmeticMean(system),
                               QuasiArithmeticMean(system.sum_generator()), m)
    return _report("generalized-bisymmetry", columns, rows, tol, matrix=m)


def gbs_for_mean_check(mean: Mean, composition: Mean, matrix,
                       tol: float = GBS_TOL) -> EquationReport:
    """The equation for an arbitrary fixed-arity mean, with the composed
    limit mean supplied by the caller (typically a GaussComposition of
    the rotation family).  Note the mirrored orientation: inner mean i
    reads row i on the lhs here.
    """
    if mean.arity is None:
        raise ValueError("gbs_for_mean_check needs a fixed-arity mean")
    m = validate_matrix(matrix, mean.domain, rows=mean.arity, cols=mean.arity)
    rows, columns = _gbs_sides(mean, composition, m)
    return _report("gbs", rows, columns, tol, matrix=m)


def associativity_check(f: Generator, xs: Sequence[float], ys: Sequence[float],
                        tol: float = EQUATION_TOL) -> EquationReport:
    """Replacing a block of arguments by their own mean (repeated to
    keep the count) must leave the overall mean unchanged."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs or not ys:
        raise ValueError("associativity needs nonempty blocks")
    y = qam_eval(f, ys)
    lhs = qam_eval(f, xs + ys)
    rhs = qam_eval(f, xs + [y] * len(ys))
    return _report("associativity", lhs, rhs, tol, point=(tuple(xs), tuple(ys)))


@dataclass(frozen=True, slots=True)
class CharacterizeConfig:
    """Knobs for the characterization pipeline.  Defaults favor the
    demo scale: ~1e3 random matrices and modest grids."""

    arity: int | None = None        # None: take the mean's own, or 2
    grid_size: int = 16
    probe_count: int = 24
    trials: int = CHARACTERIZE_TRIALS
    lattice_cap: int = 128
    tol: float = GBS_TOL
    max_iterations: int = 4000
    seed: int = 0


@dataclass(frozen=True, slots=True)
class CharacterizationVerdict:
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


def _probe_vectors(domain: Interval, n: int, count: int, seed_seq) -> list:
    rng = np.random.default_rng(seed_seq)
    return [[float(v) for v in domain.sample(rng, n)] for _ in range(count)]


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


def characterize(mean: Mean, config: CharacterizeConfig | None = None) -> CharacterizationVerdict:
    """Collect numeric evidence for or against generalized
    quasi-arithmetic structure.

    Pipeline: sampled continuity probe (a Lipschitz bound stand-in, see
    notes), per-coordinate strict growth probe, reflexivity on a grid,
    then Gauss composition of the rotation family and a witness search
    over lattice + random matrices.  Nothing here proves consistency;
    a witness, however, is a checkable refutation.
    """
    cfg = config if config is not None else CharacterizeConfig()
    if cfg.arity is not None:
        n = cfg.arity
        if mean.arity is not None and mean.arity != n:
            raise ValueError(f"mean {mean.label!r} has arity {mean.arity}, not {n}")
    else:
        n = mean.arity if mean.arity is not None else 2
    pinned = fixed_arity(mean, n)
    dom = mean.domain
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    phases = []
    failed = []
    witness_matrix = None
    witness_residual = None
    notes = [
        f"continuity probe is a sampled bound |dM| <= {LIPSCHITZ_BOUND:g}*delta"
        f" with delta = {CONTINUITY_DELTA:g}, heuristic only",
    ]

    def record(name, ok):
        phases.append((name, ok))
        if not ok:
            failed.append(name)

    # sampled continuity: nudging one coordinate moves the mean boundedly
    witness_point = _first_bad_nudge(
        mean, _probe_vectors(dom, n, cfg.probe_count, seeds[0]), CONTINUITY_DELTA,
        lambda move: abs(move) > LIPSCHITZ_BOUND * CONTINUITY_DELTA,
    )
    record("continuity", witness_point is None)

    # strict growth in every coordinate
    bad = _first_bad_nudge(
        mean, _probe_vectors(dom, n, cfg.probe_count, seeds[1]), MONOTONE_STEP,
        lambda move: move <= MONOTONE_SLACK,
    )
    record("strict-monotonicity", bad is None)
    if witness_point is None:
        witness_point = bad

    # reflexivity on a grid
    reports = (reflexivity_check(mean, x, n) for x in dom.grid(cfg.grid_size))
    off_diagonal = next((rep for rep in reports if not rep.passed), None)
    record("reflexivity", off_diagonal is None)
    if witness_point is None and off_diagonal is not None:
        witness_point = ((off_diagonal.point,) * n, None)

    # composed limit of the rotation family, then the witness search
    trials_run = 0
    try:
        mapping = cyclic_mapping(mean, arity=n)
        composition = GaussComposition(mapping, DEFAULT_GAP_TOL, cfg.max_iterations)
        # force one evaluation so convergence failures surface here
        probe = [float(v) for v in dom.grid(max(2, n))][:n]
        gauss_iterate(mapping, probe, DEFAULT_GAP_TOL, cfg.max_iterations)
    except MeanlabError as exc:
        notes.append(f"composition did not converge: {exc}")
        record("composition-convergence", False)
        composition = None
    if composition is not None:
        lattice_values = [float(v) for v in dom.grid(LATTICE_POINTS)]
        lattice = itertools.islice(
            itertools.product(lattice_values, repeat=n * n), cfg.lattice_cap
        )
        matrices = itertools.chain(
            (tuple(flat[i * n:(i + 1) * n] for i in range(n)) for flat in lattice),
            (random_matrix(np.random.default_rng(child), dom, n)
             for child in seeds[2].spawn(cfg.trials)),
        )
        ok = True
        errors = 0
        for m in matrices:
            trials_run += 1
            try:
                rep = gbs_for_mean_check(pinned, composition, m, WITNESS_FACTOR * cfg.tol)
            except ConvergenceError:
                errors += 1
                continue
            if not rep.passed:
                ok = False
                witness_matrix = rep.matrix
                witness_residual = rep.residual
                break
        if errors:
            notes.append(f"{errors} matrices skipped on convergence failures")
            if errors == trials_run:
                record("composition-convergence", False)
        record("generalized-bisymmetry", ok)

    verdict = CharacterizationVerdict(
        consistent=not failed,
        tolerance=cfg.tol,
        phases=tuple(phases),
        failed_conditions=tuple(failed),
        witness_matrix=witness_matrix,
        witness_residual=witness_residual,
        witness_point=witness_point,
        trials_run=trials_run,
        notes="; ".join(notes),
    )
    log.info("characterize[%s]: %s", mean.label, verdict.summary())
    return verdict
