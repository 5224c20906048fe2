"""Workloads: the suites each one runs, how to read their reports, and the
reference value of every sample.

A suite is one meanlab command line (or one library call).  Its sample
points are regenerated here with the library's documented scheme,
``SeedSequence(seed).spawn(samples)`` with one ``default_rng`` per
sample drawing uniformly from the inset interior of the interval, so the
oracle sees the same inputs meanlab saw without being told them.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .oracle import Oracle

# meanlab keeps sampled points 1e-9 of the interval width away from
# each (open) endpoint
ENDPOINT_INSET = 1e-9


def parse_interval(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return float(lo), float(hi)


def _uniform(rng, lo: float, hi: float, size):
    inset = ENDPOINT_INSET * (hi - lo)
    return rng.uniform(lo + inset, hi - inset, size)


def _sample_rngs(seed: int, samples: int):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(samples)]


def _rows(rows: list) -> list:
    return [[float(v) for v in row] for row in rows]


# ---- reference values, one tuple per sample --------------------------------

def truth_m1(gens, interval, seed, samples):
    o = Oracle(gens)
    lo, hi = interval
    return [(o.qam([float(v) for v in _uniform(rng, lo, hi, len(gens))]),)
            for rng in _sample_rngs(seed, samples)]


def truth_gbs(gens, interval, seed, samples):
    o = Oracle(gens)
    n = len(gens)
    return [o.generalized_bisymmetry(_rows(_uniform(rng, *interval, (n, n))))
            for rng in _sample_rngs(seed, samples)]


def truth_bs(gens, interval, seed, samples):
    o = Oracle(gens)
    out = []
    for i, rng in enumerate(_sample_rngs(seed, samples)):
        n = 2 + (i % 2)   # meanlab alternates 2x2 and 3x3 grids
        out.append(o.bisymmetry(_rows(_uniform(rng, *interval, (n, n)))))
    return out


AS_SHAPES = ((1, 2), (2, 2), (2, 3))


def truth_as(gens, interval, seed, samples):
    o = Oracle(gens)
    out = []
    for i, rng in enumerate(_sample_rngs(seed, samples)):
        k, m = AS_SHAPES[i % len(AS_SHAPES)]
        xs = [float(v) for v in _uniform(rng, *interval, k)]
        ys = [float(v) for v in _uniform(rng, *interval, m)]
        out.append(o.associativity(xs, ys))
    return out


# ---- report readers: one value tuple per sample -----------------------------

def read_json_rows(text: str) -> list:
    return json.loads(text)["results"]


def read_csv_rows(text: str) -> list:
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        row = dict(r)
        row["sample_index"] = int(row["sample_index"])
        for key in ("lhs", "rhs", "residual"):
            row[key] = float(row[key]) if row[key] else None
        rows.append(row)
    return rows


_TEXT_ROW = re.compile(r"^  (.+)\[(\d+)\](.*)$")


def read_text_rows(text: str) -> list:
    """Check name, index and verdict of each result line of a text report."""
    rows = []
    for line in text.splitlines():
        m = _TEXT_ROW.match(line)
        if m:
            words = m.group(3).split()
            verdict = words[-1] if words and "=" not in words[-1] else ""
            rows.append({"check_name": m.group(1), "sample_index": int(m.group(2)),
                         "verdict": verdict})
    return rows


def values_of(rows: list, check: str, fields: tuple) -> list:
    """Per-sample tuples of the named fields of the rows of one check,
    in sample order."""
    picked = sorted((r for r in rows if r["check_name"] == check),
                    key=lambda r: r["sample_index"])
    return [tuple(r[f] for f in fields) for r in picked]


def verdicts_of(rows: list) -> list:
    return [(r["verdict"],) for r in rows if r["check_name"].endswith(":verdict")]


# ---- suites -----------------------------------------------------------------

@dataclass
class Suite:
    """One invocation kind of a workload.

    ``argv`` is a meanlab command line whose report goes to ``output``,
    or to standard output when that is None; a suite with ``call`` set
    runs a library function instead and reads its values from the return.
    ``read`` turns the report text into per-sample value tuples; ``truth``
    gives the matching reference tuples (mpmath numbers, or verdict
    strings compared exactly).  ``known_defect`` names a defect the suite
    is expected to expose: its samples are run and checked like any
    other, but counted apart from those the program is held to, so its
    failures do not make the run incorrect.
    """

    name: str
    samples: int
    truth: Callable[[], list]
    argv: tuple = ()
    output: str | None = None
    read: Callable[[str], list] | None = None
    call: Callable[[], list] | None = None
    known_defect: str | None = None
    gauss_limit: bool = False
    _truth: list | None = field(default=None, repr=False)

    def reference(self) -> list:
        if self._truth is None:
            self._truth = self.truth()
        return self._truth


def _m1(name, out_dir, interval, gens, samples, seed, **kw):
    output = f"{out_dir}/{_slug(name)}.json"
    argv = ["--format", "json", "--output", output, "--interval", interval]
    for g in gens:
        argv += ["--gen", g]
    argv += ["--samples", str(samples), "--seed", str(seed), "verify", "m1"]
    iv = parse_interval(interval)
    return Suite(
        name=name, samples=samples, argv=tuple(argv), output=output,
        truth=lambda: truth_m1(gens, iv, seed, samples),
        read=lambda text: values_of(read_json_rows(text), "m1", ("lhs",)),
        gauss_limit=True, **kw,
    )


def _check(name, out_dir, which, interval, gens, samples, seed, truth):
    output = f"{out_dir}/{_slug(name)}.json"
    argv = ["--format", "json", "--output", output, "--interval", interval]
    for g in gens:
        argv += ["--gen", g]
    argv += ["--samples", str(samples), "--seed", str(seed), "verify", which]
    iv = parse_interval(interval)
    return Suite(
        name=name, samples=samples, argv=tuple(argv), output=output,
        truth=lambda: truth(gens, iv, seed, samples),
        read=lambda text: values_of(read_json_rows(text), which, ("lhs", "rhs")),
    )


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")


def orbit_slow(seed: int, out_dir: str) -> list:
    return [
        _m1("m1 x,x^3", out_dir, "0.1,5", ("x", "x^3"), 10, seed),
        _m1("m1 x,x^2,x^3", out_dir, "0.1,5", ("x", "x^2", "x^3"), 20, seed),
    ]


SWEEP = (
    ("1e-4,5e-3", "inversion stops on an absolute residual when generator values are below 1"),
    ("0.1,5", None),
    ("1e2,5e3", None),
    ("1e6,5e7", "Gauss iteration stalls at a gap of a few ulp and exits 3 with budget exhausted"),
)


def _library_check(seed: int, samples: int) -> Suite:
    """composition_closed_form_check on callable-backed x^3, 2*x^3: the
    generic (unfused) Gauss path and the callable inversion."""
    gens = ("x^3", "2*x^3")
    interval = (0.1, 5.0)

    def call():
        from meanlab import Generator, GeneratorSystem, Interval, composition_closed_form_check

        dom = Interval(*interval)
        system = GeneratorSystem([
            Generator.from_callable(lambda x: x ** 3, dom, label="x^3"),
            Generator.from_callable(lambda x: 2.0 * x ** 3, dom, label="2*x^3"),
        ])
        report = composition_closed_form_check(system, samples, seed=seed)
        return [(row[1],) for row in report.rows]

    return Suite(
        name="library m1 callable x^3,2*x^3", samples=samples, call=call,
        truth=lambda: truth_m1(gens, interval, seed, samples), gauss_limit=True,
    )


def checks_short(seed: int, out_dir: str) -> list:
    characterize_out = f"{out_dir}/characterize.json"
    characterize_argv = ("--format", "json", "--output", characterize_out,
                         "--interval", "0,10", "--gen", "x", "--gen", "2*x",
                         "--samples", "100", "--seed", str(seed), "verify", "characterize")
    suites = [
        _check("gbs x,x^2,x^3", out_dir, "gbs", "0.1,5", ("x", "x^2", "x^3"), 50, seed,
               truth_gbs),
        _check("bs log(x)", out_dir, "bs", "0.1,10", ("log(x)",), 100, seed, truth_bs),
        _check("as exp(x)", out_dir, "as", "0,3", ("exp(x)",), 100, seed, truth_as),
        _m1("m1 x,2*x", out_dir, "0,10", ("x", "2*x"), 50, seed),
        Suite(
            name="characterize x,2*x", samples=1, argv=characterize_argv,
            output=characterize_out,
            truth=lambda: [("consistent",)],
            read=lambda text: verdicts_of(read_json_rows(text)),
        ),
    ]
    for interval, defect in SWEEP:
        suites.append(_m1(f"m1 x^3,2*x^3 on ({interval})", out_dir, interval,
                          ("x^3", "2*x^3"), 20, seed, known_defect=defect))
    suites.append(_library_check(seed, 10))
    return suites


def cli_cold(seed: int, out_dir: str) -> list:
    rng = np.random.default_rng(seed)
    p2 = [repr(float(v)) for v in rng.uniform(0.2, 4.8, 2)]
    p3 = [repr(float(v)) for v in rng.uniform(0.2, 9.8, 3)]
    x3 = Oracle(("x", "x^3"))
    lg = Oracle(("log(x)",))
    compose_out = f"{out_dir}/compose.json"
    m1_out = f"{out_dir}/m1.csv"
    return [
        Suite(
            name="eval x,x^3", samples=1,
            argv=("--interval", "0.1,5", "--gen", "x", "--gen", "x^3",
                  "--format", "json", "eval", *p2),
            truth=lambda: [(x3.gqam([float(v) for v in p2]),)],
            read=lambda text: values_of(read_json_rows(text), "eval", ("lhs",)),
        ),
        Suite(
            name="eval log(x)", samples=1,
            argv=("--interval", "0.1,10", "--gen", "log(x)", "--format", "csv", "eval", *p3),
            truth=lambda: [(lg.qam([float(v) for v in p3]),)],
            read=lambda text: values_of(read_csv_rows(text), "eval", ("lhs",)),
        ),
        Suite(
            name="compose x,x^3 report", samples=1, output=compose_out,
            argv=("--interval", "0.1,5", "--gen", "x", "--gen", "x^3", "--max-iter", "2000",
                  "--format", "json", "--output", compose_out, "compose", "0.2", "4.8"),
            truth=lambda: [(x3.qam([0.2, 4.8]),)],
            read=lambda text: values_of(read_json_rows(text), "compose", ("lhs",)),
            gauss_limit=True,
        ),
        Suite(
            name="m1 x,2*x csv", samples=20, output=m1_out,
            argv=("--samples", "20", "--seed", str(seed), "--format", "csv",
                  "--output", m1_out, "verify", "m1"),
            truth=lambda: truth_m1(("x", "2*x"), (0.0, 10.0), seed, 20),
            read=lambda text: values_of(read_csv_rows(text), "m1", ("lhs",)),
            gauss_limit=True,
        ),
        Suite(
            name="characterize demo", samples=2,
            argv=("--seed", str(seed), "verify", "characterize"),
            truth=lambda: [("refuted",), ("refuted",)],
            read=lambda text: verdicts_of(read_text_rows(text)),
        ),
    ]


# workload name -> (suite builder, number of distinct input sets cycled
# through by the rounds of a run)
WORKLOADS = {
    "orbit-slow": (orbit_slow, 1000),
    "checks-short": (checks_short, 4),
    "cli-cold": (cli_cold, 1000),
}
