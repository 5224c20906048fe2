"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from perfbench import suites
from perfbench.oracle import Oracle, accepts
from perfbench.stats import percentile, stalled_iterations, tail_percentile
from perfbench.tracing import Tracer


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = tail_percentile(range(1, 31))
    assert (value, n) == (20, 30)
    assert sum(1 for v in range(1, 31) if v > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_percentile_smallest_sample_count():
    value, pct, n = tail_percentile([5.0, 1.0] + [9.0] * 9)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_nearest_rank_percentile():
    xs = list(range(1, 11))
    assert percentile(xs, 50) == 5
    assert percentile(xs, 90) == 9
    assert percentile(xs, 100) == 10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_subtracts_children():
    clock = FakeClock()
    tr = Tracer(clock)

    def at(t, action, name=None):
        clock.now = t
        return tr.enter() if action == "enter" else tr.exit(name)

    at(0, "enter")                      # outer [0, 10]
    at(1, "enter")                      # child [1, 3]
    at(3, "exit", "child")
    at(4, "enter")                      # child [4, 8]
    at(5, "enter")                      # grandchild [5, 6]
    at(6, "exit", "grandchild")
    at(8, "exit", "child")
    at(10, "exit", "outer")
    assert tr.total_s["outer"] == 10
    assert tr.self_s["outer"] == 10 - 2 - 4
    assert tr.calls["child"] == 2
    assert tr.total_s["child"] == 6
    assert tr.self_s["child"] == 6 - 1
    assert tr.self_s["grandchild"] == 1


def test_timed_span_closes_on_exception():
    tr = Tracer(FakeClock())

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tr.timed("layer", boom)()
    assert tr.calls["layer"] == 1 and not tr._stack


def test_stalled_iterations_on_hand_made_gaps():
    gaps = (4.0, 2.0, 2.0, 1.0, 1.5, 0.5, 0.5)
    assert stalled_iterations(gaps) == 3
    assert stalled_iterations((1.0,)) == 0


def test_tracer_counts_stalls_per_orbit():
    class Trace:
        iterations_used = 4
        gaps = (3.0, 1.0, 1.0, 0.2, 0.2)

    tr = Tracer(FakeClock())
    tr.record_orbit(Trace, 0.5, exhausted=True)
    assert tr.counts["gauss.iterations"] == 4
    assert tr.counts["gauss.stalled"] == 2
    assert tr.counts["gauss.budget_exhausted"] == 1


def test_oracle_tolerance_is_relative():
    truth = mpmath.mpf(2)
    assert accepts(2.0 * (1 + 0.9e-7), truth)
    assert accepts(2.0 * (1 - 0.9e-7), truth)
    assert not accepts(2.0 * (1 + 1.1e-7), truth)
    assert accepts(2e-9 * (1 + 0.9e-7), mpmath.mpf(2e-9))
    assert not accepts(2e-9 * (1 + 1.1e-7), mpmath.mpf(2e-9))
    for bad in (None, math.nan, math.inf):
        assert not accepts(bad, truth)


def test_oracle_reference_means():
    with mpmath.workdps(40):
        # F = 3x: the arithmetic mean; log: the geometric mean
        assert Oracle(("x", "2*x")).qam([1.0, 4.0]) == 2.5
        assert abs(Oracle(("log(x)",)).qam([1.0, 4.0]) - 2) < mpmath.mpf(10) ** -35
        # gqam of x, 2x: (x1 + 2 x2) / 3
        third = Oracle(("x", "2*x")).gqam([0.5, 3.0]) - mpmath.mpf(6.5) / 3
        assert abs(third) < mpmath.mpf(10) ** -35


def test_oracle_solves_at_large_magnitudes():
    with mpmath.workdps(40):
        root = Oracle(("x^3", "2*x^3")).qam([1e6, 4e7])
        expected = mpmath.cbrt((mpmath.mpf(1e6) ** 3 + mpmath.mpf(4e7) ** 3) / 2)
        assert abs(root - expected) < expected * mpmath.mpf(10) ** -35


def test_text_report_rows():
    text = ("meanlab verify\n  interval 0.0,10.0  generators [-]  seed 0\n"
            "  lehmer2:verdict[0] residual=1.25 refuted\n"
            "  gqam[x,2.0*x]:verdict[1] consistent\n"
            "  lehmer2: refuted: failed strict-monotonicity\n")
    assert suites.verdicts_of(suites.read_text_rows(text)) == [("refuted",), ("consistent",)]


def test_sample_points_match_meanlab():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from meanlab import Interval

    dom = Interval(0.1, 5.0)
    ours = [suites._uniform(rng, 0.1, 5.0, 2) for rng in suites._sample_rngs(7, 5)]
    theirs = [dom.sample(np.random.default_rng(c), 2)
              for c in np.random.SeedSequence(7).spawn(5)]
    assert np.array_equal(np.asarray(ours), np.asarray(theirs))


def test_known_defect_samples_are_counted_apart():
    from perfbench.run import Invocation, check_rounds

    one = mpmath.mpf(1)
    held = suites.Suite(name="held", samples=2, truth=lambda: [(one,), (one,)])
    defect = suites.Suite(name="defect", samples=2, truth=lambda: [(one,), (one,)],
                          known_defect="wrong at small scale")
    rounds = [([held, defect], [Invocation(0.1, 0.1, 0, [(1.0,), (1.0,)], ""),
                                Invocation(0.1, 0.1, 0, [(1.0,), (2.0,)], "")])]
    checked = check_rounds(rounds)
    assert (checked["attempted"], checked["failed"]) == (2, 0)
    assert (checked["defect_attempted"], checked["defect_failed"]) == (2, 1)
    assert checked["round_verified"] == [3]
    rounds[0][1][0] = Invocation(0.1, 0.1, 3, None, "stalled")
    assert check_rounds(rounds)["failed"] == 2
