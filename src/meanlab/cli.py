"""Command-line front end.

    meanlab [flags] eval X...       mean of the points
    meanlab [flags] compose X...    Gauss-iterate the cyclic mapping
    meanlab [flags] verify WHICH    randomized verification suites

Generators come from repeated --gen flags (DSL expressions, in order);
without any --gen the stock pair x, 2*x on the default interval is
used so every command runs out of the box.  `verify characterize` with
no --gen instead examines the two demo means (the contraharmonic
Lehmer mean and a lopsided min/max blend) that are the package's stock
non-examples.

Exit codes: 0 command ran (pass/fail lives in the report), 2 bad usage
or inputs outside the interval, 3 iteration budget exhausted, 4
operational failures (unwritable output and the like).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time

import numpy as np

from .bisymmetry import (
    CHARACTERIZE_TRIALS,
    EQUATION_TOL,
    GBS_TOL,
    CharacterizeConfig,
    associativity_check,
    bisymmetry_check,
    characterize,
    generalized_bisymmetry_check,
    random_matrix,
)
from .cyclic import cyclic_mapping
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
from .interval import Interval
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

log = logging.getLogger("meanlab.cli")

DEFAULT_INTERVAL = "0,10"
DEFAULT_GENERATORS = ("x", "2*x")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}

# per-subcommand fallbacks when the flag is not given: the library's own
# defaults; every other sampled check runs CHECK_SAMPLES samples
_TOL_DEFAULTS = {
    "eval": None,
    "compose": DEFAULT_GAP_TOL,
    "m1": CHECK_TOL,
    "gbs": GBS_TOL,
    "bs": EQUATION_TOL,
    "as": EQUATION_TOL,
    "equality": EQUALITY_FIT_THRESHOLD,
    "characterize": GBS_TOL,
}
_SAMPLE_DEFAULTS = {
    "equality": EQUALITY_PROBES,
    "characterize": CHARACTERIZE_TRIALS,
}


def build_parser() -> argparse.ArgumentParser:
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
                   " |lhs-rhs| <= tol*max(1,|rhs|)")
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
    ve.add_argument("which", choices=("m1", "gbs", "bs", "as", "equality", "characterize"))
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


def _build_generators(texts, interval: Interval) -> list:
    return [Generator.from_expression(t, interval) for t in texts]


def _resolve(args) -> tuple:
    interval = parse_interval(args.interval)
    which = getattr(args, "which", None)
    key = which if args.command == "verify" else args.command
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise UsageError("--tol must be a finite number at least 0")
    tol = args.tol if args.tol is not None else _TOL_DEFAULTS.get(key)
    samples = args.samples
    if samples is None:
        samples = _SAMPLE_DEFAULTS.get(key, CHECK_SAMPLES)
    if samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.max_iter < 1:
        raise UsageError("--max-iter must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be at least 0")
    gen_texts = tuple(args.gen) if args.gen else ()
    if not gen_texts and not (args.command == "verify" and which == "characterize"):
        gen_texts = DEFAULT_GENERATORS
    config = ExperimentConfig(
        command=args.command,
        which=which,
        interval=(interval.lo, interval.hi),
        generators=gen_texts,
        generators2=tuple(args.gen2) if args.gen2 else (),
        tolerance=tol,
        max_iterations=args.max_iter,
        samples=samples,
        seed=args.seed,
        output_format=args.format,
        points=tuple(getattr(args, "points", ()) or ()),
    )
    return interval, config


def _mean_of(gens: list, points=None):
    """The quasi-arithmetic mean of a single generator, else the
    generalized mean of the system, which takes one point per generator."""
    if len(gens) == 1:
        return QuasiArithmeticMean(gens[0])
    if points is not None and len(points) != len(gens):
        raise UsageError(
            f"{len(gens)} generators take exactly {len(gens)} points,"
            f" got {len(points)}"
        )
    return GeneralizedQuasiArithmeticMean(GeneratorSystem(gens))


def cmd_eval(interval: Interval, config: ExperimentConfig) -> tuple:
    pts = list(config.points)
    mean = _mean_of(_build_generators(config.generators, interval), pts)
    value = mean(pts)
    prop = mean_property_check(mean, pts)
    report = RunReport(
        command="eval",
        config=config.as_dict(),
        results=[
            result_row("eval", 0, lhs=value, verdict="ok"),
            result_row(
                "mean-bounds", 0, lhs=prop.low, rhs=prop.high,
                verdict="pass" if prop.passed else "fail",
            ),
        ],
        details={"value": f"{value:.7g}"},
    )
    return report, 0


def cmd_compose(interval: Interval, config: ExperimentConfig) -> tuple:
    pts = list(config.points)
    mean = _mean_of(_build_generators(config.generators, interval), pts)
    mapping = cyclic_mapping(mean, arity=len(pts))
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
    report = RunReport("compose", config.as_dict(), rows, details)
    return report, code


def _sample_rngs(config: ExperimentConfig):
    """One generator per sample, spawned from the seed."""
    for child in np.random.SeedSequence(config.seed).spawn(config.samples):
        yield np.random.default_rng(child)


def _m1_pairs(system: GeneratorSystem, config: ExperimentConfig):
    # floor the budget: slow systems must fail on residuals, never on an
    # artificially small iteration allowance
    check = composition_closed_form_check(
        system, config.samples, config.tolerance, seed=config.seed,
        max_iterations=max(config.max_iterations, CHECK_MAX_ITER),
    )
    return ((it, closed) for _pt, it, closed, _res in check.rows)


def _gbs_pairs(system: GeneratorSystem, config: ExperimentConfig):
    for rng in _sample_rngs(config):
        m = random_matrix(rng, system.domain, system.n)
        rep = generalized_bisymmetry_check(system, m, config.tolerance)
        yield rep.lhs, rep.rhs


def _bs_pairs(gen: Generator, config: ExperimentConfig):
    mean = QuasiArithmeticMean(gen)
    for i, rng in enumerate(_sample_rngs(config)):
        n = 2 + (i % 2)   # alternate 2x2 and 3x3 grids
        rep = bisymmetry_check(mean, random_matrix(rng, mean.domain, n), config.tolerance)
        yield rep.lhs, rep.rhs


def _as_pairs(gen: Generator, config: ExperimentConfig):
    shapes = ((1, 2), (2, 2), (2, 3))
    for i, rng in enumerate(_sample_rngs(config)):
        k, m = shapes[i % len(shapes)]
        xs = [float(v) for v in gen.domain.sample(rng, k)]
        ys = [float(v) for v in gen.domain.sample(rng, m)]
        rep = associativity_check(gen, xs, ys, config.tolerance)
        yield rep.lhs, rep.rhs


# sampled identity checks: name -> (takes a system, (lhs, rhs) per sample)
_SAMPLED_CHECKS = {
    "m1": (True, _m1_pairs),
    "gbs": (True, _gbs_pairs),
    "bs": (False, _bs_pairs),
    "as": (False, _as_pairs),
}


def _run_check(name: str, pairs, config: ExperimentConfig) -> RunReport:
    """Rows, worst residual and verdict of a sampled identity check."""
    rows = []
    worst = -1.0
    for i, (lhs, rhs) in enumerate(pairs):
        residual = abs(lhs - rhs)
        worst = max(worst, residual)
        rows.append(result_row(
            name, i, lhs=lhs, rhs=rhs, residual=residual,
            verdict="pass" if agrees(lhs, rhs, config.tolerance) else "fail",
        ))
    details = {
        "max_residual": f"{worst:.7g}",
        "verdict": "pass" if all(r["verdict"] == "pass" for r in rows) else "fail",
    }
    return RunReport("verify", config.as_dict(), rows, details)


def _verify_equality(interval: Interval, config: ExperimentConfig) -> RunReport:
    if not config.generators2:
        raise UsageError("verify equality needs --gen2")
    if len(config.generators2) != len(config.generators):
        raise UsageError(
            f"--gen2 count ({len(config.generators2)}) must match --gen"
            f" count ({len(config.generators)})"
        )
    first = _build_generators(config.generators, interval)
    second = _build_generators(config.generators2, interval)
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
    return RunReport("verify", config.as_dict(), rows, details)


def _verify_characterize(interval: Interval, config: ExperimentConfig) -> RunReport:
    if config.generators:
        means = [_mean_of(_build_generators(config.generators, interval))]
    else:
        means = [lehmer_mean(interval), minmax_blend(interval)]
    base = CharacterizeConfig()
    cfg = CharacterizeConfig(
        trials=config.samples, tol=config.tolerance, seed=config.seed,
        max_iterations=max(config.max_iterations, base.max_iterations),
    )
    rows = []
    details = {}
    for idx, mean in enumerate(means):
        verdict = characterize(mean, cfg)
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
    return RunReport("verify", config.as_dict(), rows, details)


def cmd_verify(interval: Interval, config: ExperimentConfig) -> tuple:
    which = config.which
    if which == "equality":
        return _verify_equality(interval, config), 0
    if which == "characterize":
        return _verify_characterize(interval, config), 0
    takes_system, pairs = _SAMPLED_CHECKS[which]
    gens = _build_generators(config.generators, interval)
    if takes_system:
        if len(gens) < 2:
            raise UsageError(f"verify {which} needs at least two --gen")
        subject = GeneratorSystem(gens)
    else:
        if len(gens) != 1:
            raise UsageError(f"verify {which} takes exactly one --gen")
        subject = gens[0]
    return _run_check(which, pairs(subject, config), config), 0


def _setup_logging() -> None:
    name = os.environ.get("MEANLAB_LOG", "quiet").strip().lower()
    if name not in _LOG_LEVELS:
        print(f"meanlab: unknown MEANLAB_LOG value {name!r}, using quiet",
              file=sys.stderr)
        name = "quiet"
    logging.basicConfig(
        level=_LOG_LEVELS[name], stream=sys.stderr,
        format="%(name)s: %(message)s",
    )
    logging.getLogger("meanlab").setLevel(_LOG_LEVELS[name])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    _setup_logging()
    start = time.perf_counter()
    try:
        interval, config = _resolve(args)
        if args.command == "eval":
            report, code = cmd_eval(interval, config)
        elif args.command == "compose":
            report, code = cmd_compose(interval, config)
        else:
            report, code = cmd_verify(interval, config)
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
