"""Command-line front end.

    meanlab [flags] eval X...       mean of the points
    meanlab [flags] compose X...    Gauss-iterate the cyclic mapping
    meanlab [flags] verify WHICH    randomized verification suites

Generators come from repeated --gen flags (DSL expressions, in order);
without any --gen the stock pair x, 2*x on the default interval is
used, or x^2 alone by the suites that take one generator (bs, as), so
every command runs out of the box.  `verify characterize` with no --gen
instead examines the two demo means (the contraharmonic Lehmer mean and
a lopsided min/max blend) that are the package's stock non-examples.

One table, ``_SUITES``, states each command and verify suite once: its
--tol and --samples where the flag is not given, the floor under
--max-iter, the generators where no --gen is given and, for a verify
suite, the function that runs it.  The sampled suites take either a
system of at least two generators or exactly one generator.

Each run value is resolved once, by ``_resolve``: the one
``ExperimentConfig`` it returns holds the parsed ``Interval`` and
every setting, and the commands, suites and generator builders take
that config alone.  ``compose`` pins its mean to the number of points
with ``cyclic.fixed_arity``, as ``characterize`` does, before it builds
the cyclic mapping.

The parser is built once per process; every call of ``main`` parses
into a fresh namespace, so nothing carries over from one call to the
next.

Exit codes: 0 command ran (pass/fail lives in the report), 2 bad usage
or inputs outside the interval, 3 iteration budget exhausted, 4
evaluation and operational failures (a generator that is not finite at
a given point, an unwritable output and the like).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from typing import Callable, NamedTuple

from .bisymmetry import (
    CHARACTERIZE_MAX_ITER,
    CHARACTERIZE_TRIALS,
    EQUATION_TOL,
    GBS_TOL,
    associativity_check,
    bisymmetry_check,
    characterize,
    generalized_bisymmetry_check,
    random_matrix,
)
from .cyclic import cyclic_mapping, fixed_arity
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    MeanlabError,
    MonotonicityError,
    ParseError,
    UsageError,
)
from .gauss import (
    CHECK_MAX_ITER,
    CHECK_SAMPLES,
    CHECK_TOL,
    DEFAULT_GAP_TOL,
    DEFAULT_MAX_ITER,
    composition_closed_form_check,
    gauss_iterate,
)
from .generator import Generator, GeneratorSystem
from .interval import Interval, seeded_rng
from .means import (
    EQUALITY_FIT_THRESHOLD,
    EQUALITY_PROBES,
    GeneralizedQuasiArithmeticMean,
    QuasiArithmeticMean,
    agrees,
    lehmer_mean,
    mean_property_check,
    minmax_blend,
    qam_equality_check,
    gqam_equality_check,
)
from .report import ExperimentConfig, RunReport, result_row

DEFAULT_INTERVAL = "0,10"
DEFAULT_GENERATORS = ("x", "2*x")

# MEANLAB_LOG values; quiet configures no logging, so none is imported
_LOG_LEVELS = {"quiet": None, "info": "INFO", "trace": "DEBUG"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each
    ``parse_args`` fills a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="meanlab",
        description="Generalized quasi-arithmetic means: evaluation,"
        " Gauss composition and functional-equation verification.",
    )
    p.add_argument("--interval", default=DEFAULT_INTERVAL, metavar="LO,HI",
                   help="open interval the generators live on (default %(default)s)")
    p.add_argument("--gen", action="append", metavar="EXPR",
                   help="generator expression; repeat for a system (ordered)")
    p.add_argument("--gen2", action="append", metavar="EXPR",
                   help="second generator list for `verify equality`")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance of the selected check or iteration, finite and"
                   " at least 0; verify's identity checks pass when"
                   " |lhs-rhs| <= tol*max(|rhs|,min(1,s)), s the largest |input|")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="iteration budget for Gauss composition (default %(default)s)")
    p.add_argument("--samples", type=int, default=None,
                   help="randomized instances for verify commands")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all sampling (default %(default)s)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="report format (default %(default)s)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the report to PATH instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate the mean at the given points")
    ev.add_argument("points", nargs="+", type=float)

    co = sub.add_parser("compose", help="Gauss-iterate the cyclic mapping from the points")
    co.add_argument("points", nargs="+", type=float)

    ve = sub.add_parser("verify", help="run a randomized verification suite")
    ve.add_argument("which", choices=[which for command, which in _SUITES if command == "verify"])
    return p


def parse_interval(text: str) -> Interval:
    if any(ch in text for ch in "[]()"):
        raise UsageError(
            f"interval {text!r}: write it as lo,hi — endpoints are always open"
        )
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"interval {text!r}: expected exactly lo,hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"interval {text!r}: endpoints must be numbers") from None
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise UsageError(f"interval {text!r}: {exc}") from None


def _build_generators(config: ExperimentConfig, texts) -> list:
    return [Generator.from_expression(t, config.interval) for t in texts]


def _resolve(args) -> ExperimentConfig:
    interval = parse_interval(args.interval)
    which = getattr(args, "which", None)
    suite = _SUITES[args.command, which]
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise UsageError("--tol must be a finite number at least 0")
    tol = args.tol if args.tol is not None else suite.tol
    samples = args.samples if args.samples is not None else suite.samples
    if samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.max_iter < 1:
        raise UsageError("--max-iter must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be at least 0")
    return ExperimentConfig(
        command=args.command,
        which=which,
        interval=interval,
        generators=tuple(args.gen) if args.gen else suite.generators,
        generators2=tuple(args.gen2) if args.gen2 else (),
        tolerance=tol,
        max_iterations=max(args.max_iter, suite.max_iter_floor),
        samples=samples,
        seed=args.seed,
        output_format=args.format,
        points=tuple(getattr(args, "points", ()) or ()),
    )


def _mean_of(config: ExperimentConfig, points=None):
    """The quasi-arithmetic mean of a single --gen generator, else the
    generalized mean of the system, which takes one point per generator."""
    gens = _build_generators(config, config.generators)
    if len(gens) == 1:
        return QuasiArithmeticMean(gens[0])
    if points is not None and len(points) != len(gens):
        raise UsageError(
            f"{len(gens)} generators take exactly {len(gens)} points,"
            f" got {len(points)}"
        )
    return GeneralizedQuasiArithmeticMean(GeneratorSystem(gens))


def cmd_eval(config: ExperimentConfig) -> tuple:
    pts = list(config.points)
    mean = _mean_of(config, pts)
    prop = mean_property_check(mean, pts)  # its value is the answer
    return RunReport(
        config,
        results=[
            result_row("eval", 0, lhs=prop.value, verdict="ok"),
            result_row(
                "mean-bounds", 0, lhs=prop.low, rhs=prop.high,
                verdict="pass" if prop.passed else "fail",
            ),
        ],
        details={"value": f"{prop.value:.7g}"},
    ), 0


def cmd_compose(config: ExperimentConfig) -> tuple:
    pts = list(config.points)
    mapping = cyclic_mapping(fixed_arity(_mean_of(config, pts), len(pts)))
    code = 0
    try:
        limit, trace = gauss_iterate(mapping, pts, config.tolerance, config.max_iterations)
        verdict = "converged"
    except ConvergenceError as exc:
        if exc.trace is None:
            raise
        trace = exc.trace
        limit = None
        verdict = "budget-exhausted"
        code = 3
    rows = [
        result_row("compose", 0, lhs=limit, residual=trace.gaps[-1], verdict=verdict)
    ]
    for k, gap in enumerate(trace.gaps):
        rows.append(result_row("gap", k, residual=gap))
    details = {
        "iterations": str(trace.iterations_used),
        "final_gap": f"{trace.gaps[-1]:.7g}",
        "trace": {
            "iterates": [list(v) for v in trace.iterates],
            "gaps": list(trace.gaps),
        },
    }
    if limit is not None:
        details["limit"] = f"{limit:.7g}"
        details["stop"] = trace.stop
    if trace.estimate is not None:
        # the extrapolated limit beside the last iterate's bracket
        details["estimate"] = repr(trace.estimate)
        details["bracket"] = f"[{min(trace.last)!r}, {max(trace.last)!r}]"
    return RunReport(config, rows, details), code


def _sample_rngs(config: ExperimentConfig):
    """One generator per sample, spawned from the seed."""
    return seeded_rng(config.seed).spawn(config.samples)


def _system(config: ExperimentConfig) -> GeneratorSystem:
    """The --gen system of a suite that takes at least two generators."""
    gens = _build_generators(config, config.generators)
    if len(gens) < 2:
        raise UsageError(f"verify {config.which} needs at least two --gen")
    return GeneratorSystem(gens)


def _generator(config: ExperimentConfig) -> Generator:
    """The --gen generator of a suite that takes exactly one."""
    gens = _build_generators(config, config.generators)
    if len(gens) != 1:
        raise UsageError(f"verify {config.which} takes exactly one --gen")
    return gens[0]


def _m1_pairs(config: ExperimentConfig):
    check = composition_closed_form_check(
        _system(config), config.samples, config.tolerance, seed=config.seed,
        max_iterations=config.max_iterations,
    )
    return ((it, closed, agrees(it, closed, config.tolerance, max(map(abs, pt))))
            for pt, it, closed, _res in check.rows)


def _gbs_pairs(config: ExperimentConfig):
    system = _system(config)
    for rng in _sample_rngs(config):
        m = random_matrix(rng, system.domain, system.n)
        rep = generalized_bisymmetry_check(system, m, config.tolerance)
        yield rep.lhs, rep.rhs, rep.passed


def _bs_pairs(config: ExperimentConfig):
    mean = QuasiArithmeticMean(_generator(config))
    for i, rng in enumerate(_sample_rngs(config)):
        n = 2 + (i % 2)   # alternate 2x2 and 3x3 grids
        rep = bisymmetry_check(mean, random_matrix(rng, mean.domain, n), config.tolerance)
        yield rep.lhs, rep.rhs, rep.passed


def _as_pairs(config: ExperimentConfig):
    gen = _generator(config)
    shapes = ((1, 2), (2, 2), (2, 3))
    for i, rng in enumerate(_sample_rngs(config)):
        k, m = shapes[i % len(shapes)]
        xs = gen.domain.sample(rng, k)
        ys = gen.domain.sample(rng, m)
        rep = associativity_check(gen, xs, ys, config.tolerance)
        yield rep.lhs, rep.rhs, rep.passed


def _run_check(pairs, config: ExperimentConfig) -> RunReport:
    """Rows, worst residual and verdict of the sampled identity check
    whose samples ``pairs(config)`` gives as (lhs, rhs, passed)."""
    rows = []
    worst = -1.0
    for i, (lhs, rhs, passed) in enumerate(pairs(config)):
        residual = abs(lhs - rhs)
        worst = max(worst, residual)
        rows.append(result_row(
            config.which, i, lhs=lhs, rhs=rhs, residual=residual,
            verdict="pass" if passed else "fail",
        ))
    details = {
        "max_residual": f"{worst:.7g}",
        "verdict": "pass" if all(r["verdict"] == "pass" for r in rows) else "fail",
    }
    return RunReport(config, rows, details)


def _verify_equality(config: ExperimentConfig) -> RunReport:
    if not config.generators2:
        raise UsageError("verify equality needs --gen2")
    if len(config.generators2) != len(config.generators):
        raise UsageError(
            f"--gen2 count ({len(config.generators2)}) must match --gen"
            f" count ({len(config.generators)})"
        )
    first = _build_generators(config, config.generators)
    second = _build_generators(config, config.generators2)
    settings = {"probes": config.samples, "seed": config.seed, "threshold": config.tolerance}
    if len(first) == 1:
        rep = qam_equality_check(first[0], second[0], **settings)
    else:
        rep = gqam_equality_check(GeneratorSystem(first), GeneratorSystem(second), **settings)
    rows = []
    for i, (a, b, r) in enumerate(zip(rep.slopes, rep.offsets, rep.fit_residuals)):
        rows.append(result_row(
            "affine-fit", i, lhs=a, rhs=b, residual=r,
            verdict="pass" if r <= rep.threshold else "fail",
        ))
    rows.append(result_row(
        "value-gap", 0, residual=rep.max_value_gap,
        verdict="equal" if rep.equal else "distinct",
    ))
    details = {
        "verdict": "equal" if rep.equal else "distinct",
        "slopes": ", ".join(f"{a:.7g}" for a in rep.slopes),
        "offsets": ", ".join(f"{b:.7g}" for b in rep.offsets),
    }
    return RunReport(config, rows, details)


def _verify_characterize(config: ExperimentConfig) -> RunReport:
    if config.generators:
        means = [_mean_of(config)]
    else:
        means = [lehmer_mean(config.interval), minmax_blend(config.interval)]
    rows = []
    details = {}
    for idx, mean in enumerate(means):
        verdict = characterize(
            mean, trials=config.samples, tol=config.tolerance, seed=config.seed,
            max_iterations=config.max_iterations,
        )
        for phase, ok in verdict.phases:
            rows.append(result_row(
                f"{mean.label}:{phase}", idx, verdict="pass" if ok else "fail"
            ))
        rows.append(result_row(
            f"{mean.label}:verdict", idx,
            residual=verdict.witness_residual,
            verdict="consistent" if verdict.consistent else "refuted",
        ))
        details[mean.label] = verdict.summary()
        if verdict.witness_matrix is not None:
            details[f"{mean.label}:witness"] = [list(r) for r in verdict.witness_matrix]
    return RunReport(config, rows, details)


class _Suite(NamedTuple):
    """The settings of a command, or of a verify suite, where no flag
    gives them, and a verify suite's ``run(config)``, which
    returns its report.  ``max_iter_floor`` is the least Gauss budget of
    a suite that iterates to a limit: slow systems must fail on
    residuals, never on an artificially small allowance; the config
    echoes the budget a suite ran with."""

    tol: float | None
    samples: int = CHECK_SAMPLES
    max_iter_floor: int = 1
    generators: tuple = DEFAULT_GENERATORS
    run: Callable | None = None


# keyed by command and suite, the suites in the order `verify` lists
# them; the runners look the library checks up in this module as they
# run, never here, so a check swapped into the module is the one called
_SUITES = {
    ("eval", None): _Suite(None),
    ("compose", None): _Suite(DEFAULT_GAP_TOL),
    ("verify", "m1"): _Suite(CHECK_TOL, max_iter_floor=CHECK_MAX_ITER,
                             run=functools.partial(_run_check, _m1_pairs)),
    ("verify", "gbs"): _Suite(GBS_TOL, run=functools.partial(_run_check, _gbs_pairs)),
    # bs and as take one generator: x^2, strictly increasing on the
    # default interval
    ("verify", "bs"): _Suite(EQUATION_TOL, generators=("x^2",),
                             run=functools.partial(_run_check, _bs_pairs)),
    ("verify", "as"): _Suite(EQUATION_TOL, generators=("x^2",),
                             run=functools.partial(_run_check, _as_pairs)),
    ("verify", "equality"): _Suite(EQUALITY_FIT_THRESHOLD, EQUALITY_PROBES,
                                   run=_verify_equality),
    ("verify", "characterize"): _Suite(GBS_TOL, CHARACTERIZE_TRIALS, CHARACTERIZE_MAX_ITER,
                                       (), _verify_characterize),
}


def cmd_verify(config: ExperimentConfig) -> tuple:
    return _SUITES["verify", config.which].run(config), 0


def _setup_logging() -> None:
    name = os.environ.get("MEANLAB_LOG", "quiet").strip().lower()
    if name not in _LOG_LEVELS:
        print(f"meanlab: unknown MEANLAB_LOG value {name!r}, using quiet",
              file=sys.stderr)
        name = "quiet"
    level = _LOG_LEVELS[name]
    if level is not None:
        import logging

        logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s: %(message)s")
        logging.getLogger("meanlab").setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    _setup_logging()
    start = time.perf_counter()
    try:
        config = _resolve(args)
        if args.command == "eval":
            report, code = cmd_eval(config)
        elif args.command == "compose":
            report, code = cmd_compose(config)
        else:
            report, code = cmd_verify(config)
    except (UsageError, ParseError, MonotonicityError, DomainError,
            DegenerateError, ValueError) as exc:
        print(f"meanlab: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"meanlab: {exc}", file=sys.stderr)
        return 3
    except (MeanlabError, OSError) as exc:
        print(f"meanlab: {exc}", file=sys.stderr)
        return 4
    report.stamp((time.perf_counter() - start) * 1000.0)
    try:
        text = report.render(args.format)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"meanlab: cannot write report: {exc}", file=sys.stderr)
        return 4
    return code


def entry() -> None:
    sys.exit(main())
