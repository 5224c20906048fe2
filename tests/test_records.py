"""Value semantics of the package's records and expression nodes.

Intervals, expression nodes and reports are immutable values: they
validate their arguments, refuse assignment, compare and hash by value
and print as ``Name(field=value, ...)``.  The run configuration echoes
its fields in a fixed order; a run report is the one mutable record.
"""

import math

import pytest

from meanlab import (
    Binary,
    Constant,
    Interval,
    Unary,
    Variable,
    arithmetic_mean,
    bisymmetry_check,
    cyclic_mapping,
    gauss_iterate,
    mean_property_check,
)
from meanlab.cyclic import fixed_arity
from meanlab.dsl import X
from meanlab.interval import seeded_rng
from meanlab.report import ExperimentConfig, RunReport

I010 = Interval(0.0, 10.0)


@pytest.mark.parametrize("lo,hi", [
    (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
    (1.0, 1.0), (2.0, 1.0),
    (-1.7e308, 1.7e308),  # the width overflows to inf
    (1.0, math.nextafter(1.0, 2.0)), (0.0, 5e-324),  # no float between the ends
])
def test_interval_rejects_bad_endpoints(lo, hi):
    with pytest.raises(ValueError):
        Interval(lo, hi)


def test_a_grid_needs_two_points():
    with pytest.raises(ValueError, match="grid needs at least 2 points"):
        I010.grid(1)


@pytest.mark.parametrize("lo,hi", [
    (1.0, 1.0000001),  # the inset, 1e-16, rounds back onto both ends
    (1.0, 1.0 + 4 * 2.0**-52),
    (-1e300, -1e300 * (1 - 2.0**-50)),
    (1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0)),  # one float inside
])
def test_grid_and_sample_stay_inside_a_narrow_interval(lo, hi):
    iv = Interval(lo, hi)
    for count in (2, 3, 7):
        assert all(iv.contains(x) for x in iv.grid(count)), count
    assert all(iv.contains(x) for x in iv.sample(seeded_rng(0), 50))
    assert iv.contains(iv.sample(seeded_rng(1)))


@pytest.mark.parametrize("make", [
    lambda: Constant(math.inf), lambda: Constant(math.nan),
    lambda: Unary("sin", X), lambda: Binary("%", X, X),
])
def test_nodes_reject_bad_arguments(make):
    with pytest.raises(ValueError):
        make()


def test_fields_are_converted_to_float():
    iv = Interval(0, 10)
    assert (type(iv.lo), type(iv.hi)) == (float, float)
    assert type(Constant(2).value) is float


@pytest.mark.parametrize("value,attr", [
    (Interval(0.1, 5.0), "lo"), (Constant(1.0), "value"),
    (Unary("exp", X), "op"), (Binary("+", X, X), "left"),
])
def test_assignment_is_refused(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, 3.0)


def test_reports_refuse_assignment():
    report = bisymmetry_check(arithmetic_mean(I010), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(AttributeError):
        report.passed = False
    with pytest.raises(AttributeError):
        mean_property_check(arithmetic_mean(I010), (1.0, 3.0)).value = 0.0


def test_equality_and_hash_by_value():
    assert Interval(0, 10) == Interval(0.0, 10.0) == I010
    assert hash(Interval(0, 10)) == hash(I010)
    assert Interval(0.0, 9.0) != I010
    tree = Binary("+", Variable(), Constant(1))
    same = Binary("+", X, Constant(1.0))
    assert tree == same and hash(tree) == hash(same)
    assert tree != Binary("-", X, Constant(1.0))
    assert Unary("log", X) == Unary("log", Variable())
    assert Variable() == X and hash(Variable()) == hash(X)
    assert Variable() != Constant(0.0)
    assert len({tree, same, Unary("log", X), Unary("log", X)}) == 2


def test_reports_compare_by_value():
    mapping = cyclic_mapping(fixed_arity(arithmetic_mean(I010), 2))
    first = gauss_iterate(mapping, [1.0, 7.0])[1]
    assert gauss_iterate(mapping, [1.0, 7.0])[1] == first
    assert first.last == first.iterates[-1]
    # converged is read off the stop, never stored beside it
    assert "converged" not in first._fields and len(first) == 6
    assert first.converged and not first._replace(stop=None).converged


def test_repr_text():
    assert repr(Interval(0.1, 5.0)) == "Interval(lo=0.1, hi=5.0)"
    assert str(Interval(0.1, 5.0)) == "(0.1, 5.0)"
    assert repr(Constant(2)) == "Constant(value=2.0)"
    assert repr(X) == "Variable()"
    assert repr(Unary("exp", X)) == "Unary(op='exp', operand=Variable())"
    assert (repr(Binary("+", X, Constant(1.0)))
            == "Binary(op='+', left=Variable(), right=Constant(value=1.0))")


def test_every_value_is_true():
    assert bool(X) and bool(Variable())
    assert bool(Constant(0.0)) and bool(I010)


def test_config_echo_keeps_its_key_order():
    config = ExperimentConfig("eval", (0.0, 10.0), ("x",), (), None, None, 500, 100, 0,
                              "json", (1.0, 2.0))
    assert list(config._asdict()) == [
        "command", "interval", "generators", "generators2", "which", "tolerance",
        "max_iterations", "samples", "seed", "output_format", "points",
    ]
    assert config._asdict()["points"] == (1.0, 2.0)


def test_run_report_is_mutable_with_fresh_defaults():
    config = ExperimentConfig("eval", (0.0, 10.0), ("x",), (), None, None, 500, 100, 0,
                              "json", (1.0, 2.0))
    first = RunReport(config)
    second = RunReport(config)
    # the command and the config echo come from the config
    assert (first.command, first.config) == ("eval", config._asdict())
    first.results.append({"check_name": "eval"})
    first.details["value"] = "1"
    assert (second.results, second.details) == ([], {})
    assert first.stamp(1.5) is first
    assert first.runtime_ms == 1.5 and first.timestamp


def test_a_report_refuses_an_unknown_format():
    config = ExperimentConfig("eval", (0.0, 10.0), ("x",), (), None, None, 500, 100, 0,
                              "json", (1.0, 2.0))
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        RunReport(config).render("xml")
