"""Spans around meanlab's layers, recorded from outside the library.

``install`` swaps the module-level names through which each layer is
called for timed wrappers and returns a function that puts the
originals back.  Spans nest on one stack (everything runs in one
thread); a span's self time is its duration minus the time covered by
its child spans.  Spans are folded into per-layer totals as they close,
so memory stays flat however long the run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from .stats import stalled_iterations


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []                      # [start, child_covered]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.samples = defaultdict(list)

    def enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def exit(self, name: str) -> float:
        start, covered = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name)
        return wrapper

    def record_orbit(self, trace, seconds: float, exhausted: bool) -> None:
        self.counts["gauss.iterations"] += trace.iterations_used
        self.counts["gauss.stalled"] += stalled_iterations(trace.gaps)
        self.counts["gauss.budget_exhausted"] += int(exhausted)
        self.samples["gauss.orbit_iters"].append(trace.iterations_used)
        self.samples["gauss.orbit_s"].append(seconds)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def merge(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        for key in ("total_s", "self_s"):
            for name, v in snap[key].items():
                getattr(self, key)[name] += v
        self.counts.update(snap["counts"])
        for name, vs in snap["samples"].items():
            self.samples[name].extend(vs)


# spans grouped into the layers the per-layer metrics report
KERNELS = ("eval_one", "eval_grid", "invert", "gqam", "cyclic_gauss")
BISYMMETRY_CHECKS = ("bisymmetry_check", "generalized_bisymmetry_check",
                     "gbs_for_mean_check", "associativity_check")


def install(tracer: Tracer):
    """Wrap every layer boundary of meanlab; returns the undo function."""
    from meanlab import bisymmetry, cli, cyclic, gauss, generator, kernels, means, report
    from meanlab.errors import ConvergenceError

    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # kernels: callers read kernels.ACTIVE at each call
    active = kernels.ACTIVE

    def kernel(name):
        fn = getattr(active, name)
        span = f"kernels.{name}"

        def wrapper(*args):
            tracer.enter()
            try:
                out = fn(*args)
            finally:
                tracer.exit(span)
            if name == "cyclic_gauss":
                tracer.counts["kernels.cyclic_gauss.iters"] += out[0]
            if isinstance(out, tuple) and out[1] != kernels.STATUS_OK:
                tracer.counts["kernels.status_nonok"] += 1
            return out
        return wrapper

    swap(kernels, "ACTIVE", active._replace(**{k: kernel(k) for k in KERNELS}))

    # one Gauss orbit
    iterate = gauss.gauss_iterate

    def gauss_iterate(*args, **kwargs):
        tracer.enter()
        trace, exhausted = None, False
        try:
            result = iterate(*args, **kwargs)
            trace = result[1]
            return result
        except ConvergenceError as exc:
            trace, exhausted = exc.trace, True
            raise
        finally:
            dur = tracer.exit("gauss")
            if trace is not None:
                tracer.record_orbit(trace, dur, exhausted)

    for mod in (gauss, bisymmetry, cli):
        swap(mod, "gauss_iterate", gauss_iterate)

    # one mean, one mapping step
    swap(means, "gqam_eval", tracer.timed("means", means.gqam_eval))
    qam = tracer.timed("means", means.qam_eval)
    swap(means, "qam_eval", qam)
    swap(bisymmetry, "qam_eval", qam)
    swap(cyclic.MeanTypeMapping, "apply",
         tracer.timed("cyclic.apply", cyclic.MeanTypeMapping.apply))

    # functional-equation checks
    for name in BISYMMETRY_CHECKS:
        wrapped = tracer.timed("bisymmetry.check", getattr(bisymmetry, name))
        swap(bisymmetry, name, wrapped)
        if name in cli.__dict__:
            swap(cli, name, wrapped)
    characterize = tracer.timed("bisymmetry.characterize", bisymmetry.characterize)
    swap(bisymmetry, "characterize", characterize)
    swap(cli, "characterize", characterize)

    # DSL and generator construction
    swap(generator, "parse", tracer.timed("dsl", generator.parse))
    swap(generator, "compile_expr", tracer.timed("dsl", generator.compile_expr))
    swap(generator, "check_monotone", tracer.timed("generator.monotone", generator.check_monotone))
    for name in ("from_expression", "from_callable"):
        fn = generator.Generator.__dict__[name].__func__
        swap(generator.Generator, name, classmethod(tracer.timed("generator.build", fn)))

    # report rendering
    render = report.RunReport.render

    def render_wrapper(self, output_format):
        tracer.enter()
        try:
            text = render(self, output_format)
        finally:
            tracer.exit("report.render")
        tracer.counts["report.bytes"] += len(text.encode("utf-8"))
        return text

    swap(report.RunReport, "render", render_wrapper)

    # the CLI front end
    for name in ("cmd_eval", "cmd_compose", "cmd_verify"):
        swap(cli, name, tracer.timed("cli.cmd", getattr(cli, name)))
    swap(cli, "main", tracer.timed("cli.main", cli.main))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
