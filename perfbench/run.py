#!/usr/bin/env python3
"""meanlab benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload orbit-slow --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; meanlab is imported from its
``src`` directory.  Workloads (see ``suites.py``):

    orbit-slow     in-process ``cli.main`` verify m1 on slowly contracting systems
    checks-short   in-process cheap suites, a magnitude sweep and a library check
    cli-cold       fresh ``python -m meanlab`` processes, one at a time

Load is closed-loop from one process: one suite or one CLI process at a
time, repeated in rounds until ``--seconds`` have passed.  Round r runs
input set r mod K of the workload (K is set per workload in
``suites.WORKLOADS``; set k is drawn from seed*1000+k), and every sample
of every round is checked against an mpmath reference (``oracle.py``).
The result line's ``attempted`` and ``failed`` count the samples the
program is held to; samples of a suite flagged ``known_defect`` run and
are checked all the same, but are counted apart (``known defect`` lines
and the per-layer ``oracle.fail_frac``, which covers every sample).

Host speed: shared virtual machines alternate between speed states that
differ by 1.5x or more, for milliseconds to minutes at a time.  So
every timed piece of work (one invocation, one set-up child) is
bracketed by ``probe()``, a fixed piece of interpreter work that does
not touch meanlab, and every time the benchmark reports is the measured
time t scaled to a host on which the probe takes PROBE_REF_S:
t * (PROBE_REF_S / p) ** e, with p the mean of the probe right before
and right after.  The elasticity e is 1 for work in the benchmark's own
process.  A fresh process's time follows the probe only in part (exec,
dynamic loading, numpy's import), so e is CHILD_ELASTICITY for children:
on a 2-vCPU Xeon VM, 835 ``python -m meanlab`` invocations regressed on
the probe gave 0.45-0.65, and of e = 0, 0.25, 0.5, 0.6, 0.75 and 1,
0.6 gave the steadiest medians over ten 30 s runs.  The benchmark pins
itself, and so every child it starts, to one CPU, so that the probe and
the work it scales share a CPU.  The unscaled medians and the probe
median are printed too.  Per-layer span times are
not scaled.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the
first third of the time untraced, then wraps meanlab's layers in spans
(``tracing.py``) and prints the per-layer metrics, counts taken from the
first traced round and times averaged per traced round.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import suites as workloads  # noqa: E402
from perfbench.oracle import accepts, rel_err  # noqa: E402
from perfbench.stats import percentile, tail_percentile  # noqa: E402
from perfbench.tracing import KERNELS, Tracer, install  # noqa: E402

SETUP_SAMPLES = 9          # set-up measurements spread over a run
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
CHILD_TIMEOUT_S = 60
PROBE_REF_S = 1e-3         # reported times are scaled to a host where probe() takes this
CHILD_ELASTICITY = 0.6     # share of a fresh process's time that follows probe()
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import meanlab; t1 = time.perf_counter();"
    " meanlab.warm_up(); print(t1 - t0, time.perf_counter() - t0)"
)


def probe() -> float:
    """Wall time of a fixed piece of float arithmetic and branching in the
    interpreter, independent of meanlab (0.6 to 1.2 ms on a 2.1 GHz Xeon
    VM, depending on the host's speed state)."""
    t0 = time.perf_counter()
    x, s = 1.0, 0.0
    for i in range(4000):
        x = x * 1.0000001 + 1e-9
        s += abs(x - 1.0) if i & 1 else min(x, 2.0)
    return time.perf_counter() - t0


class Invocation(NamedTuple):
    seconds: float          # scaled to the reference host speed
    raw_seconds: float
    code: int | None        # exit code, None when it crashed or hung
    values: list | None     # per-sample value tuples read from the report
    note: str


class Runner:
    """Runs one workload's suites and keeps every observation."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.in_process = workload != "cli-cold"
        build, count = workloads.WORKLOADS[workload]
        # round r runs input set r mod count; set k draws from seed*1000+k
        self.input_sets = [build(seed * 1000 + k, str(workdir)) for k in range(count)]
        self.env = dict(os.environ, MEANLAB_LOG="quiet", PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
        self.setup = []          # scaled (import_s, import_and_warm_up_s) per child
        self.probes = []         # host probe seconds around each timed piece of work
        self.tracer = None

    # -- children ------------------------------------------------------------

    def child(self, cmd: list, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, **kwargs)

    def scaled(self, work, elasticity: float = 1.0):
        """Run ``work`` between two probes; returns (its result, raw
        seconds, factor that scales its times to the reference host)."""
        before = probe()
        t0 = time.perf_counter()
        out = work()
        raw = time.perf_counter() - t0
        host = 0.5 * (before + probe())
        self.probes.append(host)
        return out, raw, (PROBE_REF_S / host) ** elasticity

    def measure_setup(self) -> None:
        p, _, factor = self.scaled(
            lambda: self.child([sys.executable, "-c", SETUP_CODE], check=True),
            CHILD_ELASTICITY)
        imp, total = p.stdout.split()
        self.setup.append((float(imp) * factor, float(total) * factor))

    def interp_ms(self, count: int = 5) -> float:
        times = []
        for _ in range(count):
            _, raw, factor = self.scaled(
                lambda: self.child([sys.executable, "-c", "pass"], check=True),
                CHILD_ELASTICITY)
            times.append(raw * factor)
        return 1e3 * statistics.median(times)

    # -- one invocation --------------------------------------------------------

    def invoke(self, suite) -> Invocation:
        if suite.output:
            with contextlib.suppress(FileNotFoundError):
                os.remove(suite.output)
        run = self._invoke_in_process if self.in_process else self._invoke_process
        (code, out, note), raw, factor = self.scaled(
            lambda: run(suite), 1.0 if self.in_process else CHILD_ELASTICITY)
        spans = self.workdir / "spans.json"
        if spans.exists():
            self.tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        if suite.call is None and code == 0:
            out = self._read(suite, out)
        return Invocation(raw * factor, raw, code, out, note)

    def _invoke_in_process(self, suite) -> tuple:
        """(exit code or None, values of a library call, note)."""
        from meanlab import cli

        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                if suite.call is not None:
                    return 0, suite.call(), ""
                code = cli.main(list(suite.argv))
        except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
            return None, None, f"{type(exc).__name__}: {exc}"
        return code, None, err.getvalue().strip()

    def _invoke_process(self, suite) -> tuple:
        """(exit code or None, standard output, note)."""
        if self.tracer is not None:
            spans = self.workdir / "spans.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "meanlab"]
        try:
            p = self.child(cmd + list(suite.argv))
        except subprocess.TimeoutExpired:
            return None, None, f"killed after {CHILD_TIMEOUT_S} s"
        return p.returncode, p.stdout, p.stderr.strip()[-300:]

    @staticmethod
    def _read(suite, stdout):
        """Per-sample values from the report file, or from standard output."""
        try:
            if suite.output:
                text = Path(suite.output).read_text(encoding="utf-8")
            else:
                text = stdout
            return suite.read(text)
        except (OSError, ValueError, KeyError):
            return None

    # -- rounds -----------------------------------------------------------------

    def run_rounds(self, seconds: float, setup_every: float, first_round_hook=None) -> list:
        """Closed loop: whole rounds until ``seconds`` have passed, with a
        set-up measurement every ``setup_every`` seconds between rounds.
        Returns (suites, invocations) per round."""
        rounds = []
        start = time.perf_counter()
        next_setup = start
        while True:
            if len(self.setup) < SETUP_SAMPLES and time.perf_counter() >= next_setup:
                self.measure_setup()
                next_setup += setup_every
            suites = self.input_sets[len(rounds) % len(self.input_sets)]
            rounds.append((suites, [self.invoke(s) for s in suites]))
            if first_round_hook is not None and len(rounds) == 1:
                first_round_hook()
            if time.perf_counter() - start >= seconds:
                return rounds


def check_rounds(rounds) -> dict:
    """Judge every sample of every invocation against the reference."""
    out = {"attempted": 0, "failed": 0, "defect_attempted": 0, "defect_failed": 0,
           "gauss_max_rel_err": 0.0, "max_rel_err": 0.0, "round_verified": [],
           "suite_failed": Counter(), "notes": {}}
    for suites, invocations in rounds:
        verified = 0
        for suite, (_, _, code, values, note) in zip(suites, invocations):
            truth = suite.reference()
            ok_count = 0
            if code == 0 and values is not None:
                for got, want in zip(values, truth):
                    if all(isinstance(w, str) for w in want):
                        ok = tuple(got) == want
                    else:
                        ok = len(got) == len(want) and all(
                            accepts(g, w) for g, w in zip(got, want))
                        err = max(rel_err(g, w) for g, w in zip(got, want))
                        if math.isfinite(err):
                            out["max_rel_err"] = max(out["max_rel_err"], err)
                            if suite.gauss_limit:
                                out["gauss_max_rel_err"] = max(out["gauss_max_rel_err"], err)
                    ok_count += ok
            elif note:
                out["notes"].setdefault(suite.name, f"exit {code}: {note.splitlines()[-1]}")
            failed = suite.samples - ok_count
            prefix = "" if suite.known_defect is None else "defect_"
            out[prefix + "attempted"] += suite.samples
            out[prefix + "failed"] += failed
            out["suite_failed"][suite.name, suite.known_defect] += failed
            verified += ok_count
        out["round_verified"].append(verified)
    return out


def rate(rounds, verified, field: str = "seconds") -> float:
    """Median over rounds of verified samples per second of invocation time."""
    return statistics.median(v / sum(getattr(inv, field) for inv in invocations)
                             for (_, invocations), v in zip(rounds, verified))


def latency_stats(rounds, field: str = "seconds") -> tuple:
    """Median and tail of the wall time of one CLI invocation."""
    times = [getattr(inv, field) for suites, invocations in rounds
             for s, inv in zip(suites, invocations) if s.call is None]
    p50 = statistics.median(times)
    if len(times) > TAIL_BEYOND:
        tail, pct, n = tail_percentile(times, TAIL_BEYOND)
    else:
        tail, pct, n = max(times), 100.0, len(times)
    return p50, tail, pct, n


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(args) -> dict:
    import mpmath
    import numpy

    import meanlab
    from meanlab import kernels

    return {
        "nproc": os.cpu_count(),
        "backend": meanlab.active_backend(),
        "numba_importable": kernels.HAS_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "workload": args.workload,
        "seed": args.seed,
    }


def numba_agreement() -> bool:
    """Compiled and interpreted kernels must agree before numba figures
    are printed; only runs when numba imports."""
    import numpy as np

    from meanlab import builtin_system, kernels_for, warm_up
    from meanlab.generator import INVERT_BUDGET

    py, nb = kernels_for("numpy"), kernels_for("numba")
    warm_up(nb)
    system = builtin_system("x,x^3")
    codes, operands, offsets, total = system.tape_pack()
    cubic = system.generators[1].tape
    grid = np.asarray(system.domain.grid(400))
    starts = system.domain.sample(np.random.default_rng(7), (16, system.n))
    it_buf, gap_buf = np.empty((4001, system.n)), np.empty(4001)

    def tasks(k):
        yield "eval_grid", lambda: k.eval_grid(cubic.code, cubic.operands, grid).tolist()
        yield "gqam", lambda: [k.gqam(codes, operands, offsets, total.code, total.operands,
                                      row, 1e-12, INVERT_BUDGET)[0] for row in starts]
        yield "cyclic_gauss", lambda: [
            k.cyclic_gauss(codes, operands, offsets, total.code, total.operands, row.copy(),
                           1e-10, 1e-12, INVERT_BUDGET, 4000, it_buf, gap_buf)[0]
            for row in starts]

    agree = True
    for (name, f_py), (_, f_nb) in zip(tasks(py), tasks(nb)):
        t0 = time.perf_counter()
        a = f_py()
        t1 = time.perf_counter()
        b = f_nb()
        t2 = time.perf_counter()
        same = all(abs(x - y) <= 1e-12 * max(1.0, abs(x)) for x, y in zip(a, b))
        agree &= same
        print(f"numba {name}: numpy {1e3 * (t1 - t0):.2f} ms, numba {1e3 * (t2 - t1):.2f} ms,"
              f" {'agree' if same else 'DISAGREE'}")
    return agree


def layer_metrics(first: dict, tracer: Tracer, traced_rounds: int) -> dict:
    """Per-layer metrics: counts from the first traced round (they repeat
    exactly), times as means per traced round."""
    calls, counts, samples = first["calls"], first["counts"], first["samples"]
    per_round = 1.0 / traced_rounds
    busy = {k: v * per_round for k, v in tracer.total_s.items()}
    own = {k: v * per_round for k, v in tracer.self_s.items()}
    m = {}
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = calls.get(f"kernels.{k}", 0)
        m[f"kernels.{k}.busy_s"] = busy.get(f"kernels.{k}", 0.0)
    iters = tracer.counts["kernels.cyclic_gauss.iters"]
    m["kernels.cyclic_gauss.us_per_iter"] = (
        1e6 * tracer.total_s["kernels.cyclic_gauss"] / iters if iters else 0.0)
    m["kernels.status_nonok"] = counts.get("kernels.status_nonok", 0)
    orbit_iters = samples.get("gauss.orbit_iters", [])
    orbit_ms = [1e3 * s for s in tracer.samples["gauss.orbit_s"]]
    gauss_iters = counts.get("gauss.iterations", 0)
    m.update({
        "gauss.orbits": calls.get("gauss", 0),
        "gauss.iterations": gauss_iters,
        "gauss.iters_p50": statistics.median(orbit_iters) if orbit_iters else 0,
        "gauss.iters_max": max(orbit_iters, default=0),
        "gauss.self_s": own.get("gauss", 0.0),
        "gauss.orbit_p50_ms": percentile(orbit_ms, 50) if orbit_ms else 0.0,
        "gauss.orbit_p90_ms": percentile(orbit_ms, 90) if orbit_ms else 0.0,
        "gauss.budget_exhausted": counts.get("gauss.budget_exhausted", 0),
        "gauss.stalled_iter_frac": (counts.get("gauss.stalled", 0) / gauss_iters
                                    if gauss_iters else 0.0),
        "means.calls": calls.get("means", 0),
        "means.self_s": own.get("means", 0.0),
        "cyclic.apply_calls": calls.get("cyclic.apply", 0),
        "cyclic.apply_s": busy.get("cyclic.apply", 0.0),
        "bisymmetry.checks": calls.get("bisymmetry.check", 0),
        "bisymmetry.self_s": own.get("bisymmetry.check", 0.0)
        + own.get("bisymmetry.characterize", 0.0),
        "dsl.calls": calls.get("dsl", 0),
        "dsl.busy_s": busy.get("dsl", 0.0),
        "generator.builds": calls.get("generator.build", 0),
        "generator.build_s": busy.get("generator.build", 0.0),
        "generator.monotone_s": busy.get("generator.monotone", 0.0),
        "report.renders": calls.get("report.render", 0),
        "report.render_s": busy.get("report.render", 0.0),
        "report.bytes": counts.get("report.bytes", 0),
        "cli.self_s": own.get("cli.main", 0.0) + own.get("cli.cmd", 0.0),
    })
    return m


PER_LAYER_UNITS = {
    "calls": "count", "busy_s": "s", "us_per_iter": "us", "status_nonok": "count",
    "orbits": "count", "iterations": "count", "iters_p50": "count", "iters_max": "count",
    "self_s": "s", "orbit_p50_ms": "ms", "orbit_p90_ms": "ms", "budget_exhausted": "count",
    "stalled_iter_frac": "ratio", "max_rel_err": "ratio", "apply_calls": "count",
    "apply_s": "s", "checks": "count", "builds": "count", "build_s": "s",
    "monotone_s": "s", "renders": "count", "render_s": "s", "bytes": "B",
    "interp_ms": "ms", "import_ms": "ms", "verified_per_s": "1/s", "overhead_pct": "%",
    "fail_frac": "ratio", "tail_pct": "%", "invocations": "count", "probe_ms": "ms",
}


def run(args, workdir: Path) -> dict:
    runner = Runner(args.workload, args.seed, workdir)
    import meanlab

    meanlab.warm_up()
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    agree = numba_agreement() if env["numba_importable"] else True

    seconds = float(args.seconds)
    setup_every = seconds / SETUP_SAMPLES
    if not args.trace:
        rounds = runner.run_rounds(seconds, setup_every)
        rss = peak_rss_mb(runner.in_process)
        traced = []
    else:
        rounds = runner.run_rounds(seconds / 3.0, setup_every)
        runner.tracer = tracer = Tracer()
        uninstall = install(tracer) if runner.in_process else (lambda: None)
        first = {}
        try:
            traced = runner.run_rounds(2.0 * seconds / 3.0, setup_every,
                                       first_round_hook=lambda: first.update(tracer.snapshot()))
        finally:
            uninstall()
    while len(runner.setup) < SETUP_SAMPLES:
        runner.measure_setup()

    checked = check_rounds(rounds + traced)
    verified = checked["round_verified"]
    p50, tail, tail_pct, n_inv = latency_stats(rounds + traced)
    for (name, defect), failed in checked["suite_failed"].items():
        if failed:
            tag = f"known defect: {defect}" if defect else "UNEXPECTED"
            print(f"failed {failed} samples of '{name}' ({tag})")
    per_suite = defaultdict(list)
    for suites, invocations in rounds + traced:
        for suite, inv in zip(suites, invocations):
            per_suite[suite.name].append(inv)
    for name, invs in per_suite.items():
        print(f"suite '{name}': {len(invs)} runs, median"
              f" {1e3 * statistics.median(i.seconds for i in invs):.1f} ms scaled,"
              f" {1e3 * statistics.median(i.raw_seconds for i in invs):.1f} ms raw")
    for name, note in checked["notes"].items():
        print(f"note '{name}': {note}")
    all_failed = checked["failed"] + checked["defect_failed"]
    fail_frac = all_failed / (checked["attempted"] + checked["defect_attempted"])
    print(f"known defect samples: {checked['defect_failed']} of"
          f" {checked['defect_attempted']} failed")
    print(f"rounds {len(rounds)} untraced + {len(traced)} traced, invocations {n_inv},"
          f" fail_frac {fail_frac:.6g} over all samples,"
          f" cli_tail_ms is p{tail_pct:.4g} of {n_inv}")
    raw_p50, raw_tail, _, _ = latency_stats(rounds + traced, "raw_seconds")
    print(f"unscaled: verified_per_s {rate(rounds, verified, 'raw_seconds'):.6g},"
          f" cli_p50_ms {1e3 * raw_p50:.6g}, cli_tail_ms {1e3 * raw_tail:.6g};"
          f" host probe median {1e3 * statistics.median(runner.probes):.4g} ms"
          f" (reference {1e3 * PROBE_REF_S:g} ms)")

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(t for _, t in runner.setup), "s"),
            "verified_per_s": (rate(rounds, verified), "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "cli_p50_ms": (1e3 * p50, "ms"),
            "cli_tail_ms": (1e3 * tail, "ms"),
        }
    else:
        untraced_rate = rate(rounds, verified[:len(rounds)])
        traced_rate = rate(traced, verified[len(rounds):])
        layers = layer_metrics(first, tracer, len(traced))
        layers.update({
            "gauss.max_rel_err": checked["gauss_max_rel_err"],
            "oracle.max_rel_err": checked["max_rel_err"],
            "oracle.fail_frac": fail_frac,
            "cli.interp_ms": runner.interp_ms(),
            "cli.import_ms": 1e3 * statistics.median(i for i, _ in runner.setup),
            "cli.tail_pct": tail_pct,
            "cli.invocations": n_inv,
            "trace.verified_per_s": traced_rate,
            "trace.overhead_pct": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
            "host.probe_ms": 1e3 * statistics.median(runner.probes),
        })
        metrics = {k: (v, PER_LAYER_UNITS[k.rsplit(".", 1)[1]]) for k, v in layers.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": agree and checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "meanlab" / "__init__.py").is_file():
        print(f"perfbench: no meanlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["MEANLAB_LOG"] = "quiet"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
