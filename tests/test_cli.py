"""Command-line behavior: exit codes, report formats, determinism.

Everything drives `main(argv)` in-process; subprocess tests at the end
cover the console-script target named in pyproject.toml, an environment
that still sets the retired MEANLAB_BACKEND, and the stderr of an
overflowing generator, also with warnings turned into errors.  Two more
check that no command loads numpy and that `verify` runs where numpy
cannot be imported.
"""

import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from meanlab.cli import main, parse_interval
from meanlab.errors import UsageError
from meanlab.interval import Interval
from meanlab.report import RESULT_COLUMNS

from support import strip_volatile

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out else None), err


# --- eval ---------------------------------------------------------------------


def test_eval_weighted_pair(capsys):
    code, payload, _ = run_json(capsys, "--gen", "x", "--gen", "2*x", "eval", "0.5", "3")
    assert code == 0
    assert payload["details"]["value"] == "2.166667"
    verdicts = {r["check_name"]: r["verdict"] for r in payload["results"]}
    assert verdicts["mean-bounds"] == "pass"


def test_eval_evaluates_the_mean_once(capsys, monkeypatch):
    from meanlab import kernels

    calls = []
    gqam = kernels.ACTIVE.gqam

    def counted(step, xs):
        calls.append(xs)
        return gqam(step, xs)

    monkeypatch.setattr(kernels, "ACTIVE", kernels.ACTIVE._replace(gqam=counted))
    code, payload, _ = run_json(capsys, "--gen", "x", "--gen", "2*x", "eval", "0.5", "3")
    assert code == 0 and payload["details"]["value"] == "2.166667"
    assert len(calls) == 1


def test_a_repeated_verify_m1_builds_its_generators_from_the_kept_trees(capsys, monkeypatch):
    from meanlab import kernels

    grids = []
    eval_grid = kernels.ACTIVE.eval_grid

    def counted(body, xs):
        grids.append(len(xs))
        return eval_grid(body, xs)

    monkeypatch.setattr(kernels, "ACTIVE", kernels.ACTIVE._replace(eval_grid=counted))
    argv = ("--gen", "x", "--gen", "x^3", "--interval", "0.2,4", "--samples", "3",
            "verify", "m1")
    code, first, err = run_json(capsys, *argv)
    assert code == 0
    grids.clear()
    code, again, again_err = run_json(capsys, *argv)
    # the second run's grid checks were kept from the first
    assert grids == []
    assert (code, strip_volatile(again), again_err) == (0, strip_volatile(first), err)


def test_eval_single_generator_is_variadic(capsys):
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,10", "--gen", "log(x)", "eval", "1", "4"
    )
    assert code == 0
    assert payload["details"]["value"] == "2"
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,10", "--gen", "log(x)", "eval", "1", "2", "4", "8"
    )
    assert code == 0
    assert float(payload["details"]["value"]) == pytest.approx(2.0 ** 1.5, rel=1e-6)


def test_eval_point_count_must_match_system(capsys):
    code, out, err = run(capsys, "--gen", "x", "--gen", "2*x", "eval", "1", "2", "3")
    assert code == 2
    assert out == ""
    assert "2 generators" in err


def test_eval_rejects_point_outside_interval(capsys):
    code, _, err = run(capsys, "--interval", "0.1,10", "--gen", "log(x)", "eval", "-3")
    assert code == 2
    assert "meanlab:" in err


def test_eval_rejects_bad_generator(capsys):
    code, _, err = run(capsys, "--gen", "sin(x)", "eval", "1")
    assert code == 2
    code, _, err = run(capsys, "--gen", "0-x", "eval", "1")
    assert code == 2


# --- compose --------------------------------------------------------------------


def test_compose_weighted_pair_limit(capsys):
    code, payload, _ = run_json(
        capsys, "--interval=-1,10", "--gen", "x", "--gen", "2*x", "compose", "0", "3"
    )
    assert code == 0
    assert payload["details"]["limit"] == "1.5"
    top = payload["results"][0]
    assert top["verdict"] == "converged"
    assert top["lhs"] == pytest.approx(1.5, abs=1e-9)


def test_compose_identical_components_need_one_step(capsys):
    code, payload, _ = run_json(capsys, "--gen", "x", "--gen", "x", "compose", "1", "3")
    assert code == 0
    assert int(payload["details"]["iterations"]) <= 1
    assert payload["details"]["limit"] == "2"


def test_compose_budget_exhaustion_exits_3_with_trace(capsys):
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,5", "--gen", "x", "--gen", "x^3",
        "--max-iter", "1", "compose", "0.2", "4.8",
    )
    assert code == 3
    assert payload["results"][0]["verdict"] == "budget-exhausted"
    trace = payload["details"]["trace"]
    assert len(trace["iterates"]) == 2  # start + the single permitted step
    assert trace["gaps"][1] < trace["gaps"][0]


def test_compose_failed_inner_inversion_exits_3_without_report(capsys):
    # the first Gauss step's inner solve runs out of steps: that is the
    # error to report, not an exhausted Gauss budget
    code, out, err = run(
        capsys, "--interval", "1,1.03", "--gen", "x^20000", "--gen", "x^20000",
        "compose", "1.0191088506114259", "1.008093601426729",
    )
    assert code == 3
    assert out == ""
    assert err == ("meanlab: inversion of 'x^20000 + x^20000' did not reach"
                   " tol = 1e-12 within 200 steps\n")


@pytest.mark.parametrize("budget", ["100000000000000000", "100000000000000000000"])
def test_compose_huge_budget_is_only_a_cap(capsys, budget):
    # the orbit keeps the rows it makes, so a budget far past memory
    # allocates nothing up front: the run is the default budget's run
    code, payload, err = run_json(capsys, "--max-iter", budget, "compose", "1", "7")
    assert (code, err) == (0, "")
    _, default, _ = run_json(capsys, "compose", "1", "7")
    assert payload["results"] == default["results"]
    assert payload["details"] == default["details"]


def test_m1_orbit_stalled_a_few_ulp_above_the_floor_passes(capsys):
    # sample 0's orbit stops shrinking at a gap of 5.59e-9, just above the
    # 4-ulp floor; it has converged, so the budget does not run out
    code, payload, err = run_json(
        capsys, "--interval", "1e6,1e7", "--gen", "x^1.1", "--gen", "x^1.2",
        "--samples", "10", "--seed", "2", "--max-iter", "5000", "verify", "m1",
    )
    assert (code, err) == (0, "")
    assert payload["details"]["verdict"] == "pass"


def test_compose_large_magnitudes_converge_at_float_resolution(capsys):
    # gap_tol 1e-10 is below one ulp of these iterates; the orbit stops on
    # the floor instead of exhausting the budget
    code, payload, _ = run_json(
        capsys, "--interval", "1e6,1e7", "--gen", "x^1.1", "--gen", "x^1.2",
        "--max-iter", "300", "compose", "2e6", "9e6",
    )
    assert code == 0
    assert payload["results"][0]["verdict"] == "converged"
    assert int(payload["details"]["iterations"]) < 300


def test_compose_gap_rows_decrease(capsys):
    # x, x^3 ends on its Shanks estimate, shown beside the last bracket;
    # x, 2*x, whose mean has no geometric tail, closes its gap
    stops = []
    for gen in ("x^3", "2*x"):
        code, payload, _ = run_json(
            capsys, "--interval", "0.1,5", "--gen", "x", "--gen", gen,
            "--max-iter", "2000", "compose", "1", "3",
        )
        assert code == 0
        gaps = [r["residual"] for r in payload["results"] if r["check_name"] == "gap"]
        assert gaps == sorted(gaps, reverse=True)
        details = payload["details"]
        stops.append(details["stop"])
        if details["stop"] == "gap":
            assert gaps[-1] <= 1e-10
            assert "estimate" not in details and "bracket" not in details
        else:
            estimate = float(details["estimate"])
            last = details["trace"]["iterates"][-1]
            assert json.loads(details["bracket"]) == [min(last), max(last)]
            assert min(last) <= estimate <= max(last)
            assert payload["results"][0]["lhs"] == estimate
    assert stops == ["extrapolated", "gap"]


def test_a_csv_compose_report_leaves_the_gap_rows_sides_empty(capsys):
    code, out, _ = run(capsys, "--format", "csv", "--interval", "0.1,5", "--gen", "x",
                       "--gen", "2*x", "compose", "1", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["check_name"] for r in rows[1:]] == ["gap"] * (len(rows) - 1)
    assert float(rows[0]["lhs"]) == pytest.approx(2.0) and rows[0]["rhs"] == ""
    for k, row in enumerate(rows[1:]):
        assert (row["sample_index"], row["lhs"], row["rhs"], row["verdict"]) == (str(k), "", "", "")
        assert float(row["residual"]) >= 0.0


# --- verify suites ---------------------------------------------------------------


def test_verify_m1_default_system(capsys):
    code, payload, _ = run_json(capsys, "--samples", "25", "verify", "m1")
    assert code == 0
    assert payload["details"]["verdict"] == "pass"
    rows = payload["results"]
    assert len(rows) == 25
    assert all(r["verdict"] == "pass" for r in rows)
    assert max(r["residual"] for r in rows) <= 1e-7


def test_eval_is_accurate_on_values_below_one(capsys):
    from mpmath import cbrt, mp, mpf

    mp.dps = 40
    code, payload, _ = run_json(
        capsys, "--interval", "0,1e-3", "--gen", "x^3", "eval", "1e-4", "5e-4"
    )
    assert code == 0
    truth = cbrt((mpf(1e-4) ** 3 + mpf(5e-4) ** 3) / 2)
    assert abs(payload["results"][0]["lhs"] / truth - 1) <= 1e-9


@pytest.mark.parametrize("argv,code,value", [
    (["--interval", "0,1e6", "--gen", "x", "eval", "0.0001", "0.0002"], 0, "0.00015"),
    (["--interval", "0,10", "--gen", "log(x)", "eval", "1e-300", "1"], 0, "1e-150"),
    (["--interval", "0,10", "--gen=-1/x", "eval", "1e-320", "1"], 4, None),
    (["--interval", "0,10", "--gen", "x", "--gen", "x^3", "compose", "1e-9", "5e-9"], 3, None),
], ids=["x-wide-interval", "log-tiny-point", "reciprocal-subnormal", "near-identity-orbit"])
def test_points_in_the_inset_band_are_evaluated_where_they_are(capsys, argv, code, value):
    # each point lies within 1e-9 of the width from 0, where nothing moves it
    got, payload, err = run_json(capsys, *argv)
    assert got == code
    if code == 4:
        assert payload is None
        assert err == "meanlab: '-1/x' is not finite at x = 1e-320\n"
        return
    assert err == ""
    if code == 3:
        assert payload["results"][0]["verdict"] == "budget-exhausted"
        assert "limit" not in payload["details"]
        return
    assert payload["details"]["value"] == value
    assert [r["verdict"] for r in payload["results"]] == ["ok", "pass"]


LARGE_M1 = ("--interval", "1e6,5e7", "--gen", "x^3", "--gen", "2*x^3", "--samples", "5")


def test_verify_m1_large_magnitudes_pass_relative(capsys):
    # residuals near 1e-5 on values near 3e7: about 5e-13 relative
    code, payload, _ = run_json(capsys, *LARGE_M1, "verify", "m1")
    assert code == 0
    rows = payload["results"]
    assert max(r["residual"] for r in rows) > 1e-7
    assert all(r["verdict"] == "pass" for r in rows)
    assert payload["details"]["verdict"] == "pass"


def test_verify_m1_verdict_is_the_library_verdict(capsys):
    from meanlab import Generator, GeneratorSystem, Interval, composition_closed_form_check
    from meanlab.gauss import CHECK_MAX_ITER

    _, payload, _ = run_json(capsys, *LARGE_M1, "verify", "m1")
    dom = Interval(1e6, 5e7)
    system = GeneratorSystem([Generator.from_expression(g, dom) for g in ("x^3", "2*x^3")])
    check = composition_closed_form_check(system, 5, 1e-7, max_iterations=CHECK_MAX_ITER)
    assert [r["residual"] for r in payload["results"]] == [row[3] for row in check.rows]
    assert check.passed
    assert payload["details"]["verdict"] == "pass"


@pytest.mark.parametrize("argv,budget", [
    (["verify", "m1"], 2000),
    (["--max-iter", "3", "verify", "m1"], 2000),
    (["--max-iter", "2500", "verify", "m1"], 2500),
    (["verify", "characterize"], 4000),
    (["--max-iter", "5000", "verify", "characterize"], 5000),
    (["verify", "gbs"], 500),
    (["--max-iter", "3", "compose", "1", "7"], 3),
])
def test_config_echoes_the_budget_the_command_ran_with(capsys, argv, budget):
    _, payload, _ = run_json(capsys, "--samples", "2", *argv)
    assert payload["config"]["max_iterations"] == budget


def test_verify_m1_needs_a_system(capsys):
    code, _, err = run(capsys, "--gen", "x", "verify", "m1")
    assert code == 2
    assert "at least two" in err


def test_verify_gbs_triple(capsys):
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,5", "--gen", "x", "--gen", "x^2", "--gen", "x^3",
        "--samples", "40", "verify", "gbs",
    )
    assert code == 0
    assert payload["details"]["verdict"] == "pass"


def test_verify_gbs_impossible_tolerance_still_exits_zero(capsys):
    # a failing verification is a successful run; failure lives in the report
    code, payload, _ = run_json(
        capsys, "--samples", "10", "--tol", "1e-30", "verify", "gbs"
    )
    assert code == 0
    assert payload["details"]["verdict"] == "fail"


def test_verify_bs_quasi_arithmetic(capsys):
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,10", "--gen", "log(x)", "--samples", "30",
        "verify", "bs",
    )
    assert code == 0
    assert payload["details"]["verdict"] == "pass"


def test_verify_bs_takes_one_generator(capsys):
    code, _, err = run(capsys, "--gen", "x", "--gen", "2*x", "verify", "bs")
    assert code == 2
    assert "exactly one" in err


def test_verify_as_exponential(capsys):
    code, payload, _ = run_json(
        capsys, "--interval", "0,3", "--gen", "exp(x)", "--samples", "30", "verify", "as"
    )
    assert code == 0
    assert payload["details"]["verdict"] == "pass"


def test_verify_equality_detects_affine_pair(capsys):
    code, payload, _ = run_json(
        capsys, "--gen", "x", "--gen2", "2*x+1", "verify", "equality"
    )
    assert code == 0
    assert payload["details"]["verdict"] == "equal"
    assert payload["details"]["slopes"] == "2"
    assert payload["details"]["offsets"] == "1"


def test_verify_equality_distinguishes_generators(capsys):
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,3", "--gen", "x", "--gen2", "exp(x)",
        "verify", "equality",
    )
    assert code == 0
    assert payload["details"]["verdict"] == "distinct"


def test_verify_equality_probes_follow_samples(capsys):
    from meanlab import Generator, Interval, qam_equality_check

    argv = ("--interval", "0.1,3", "--gen", "x", "--gen2", "exp(x)")
    gaps = {}
    for samples in ("3", "50"):
        _, payload, _ = run_json(capsys, *argv, "--samples", samples, "verify", "equality")
        gaps[samples] = payload["results"][-1]["residual"]
    dom = Interval(0.1, 3.0)
    three = qam_equality_check(
        Generator.from_expression("x", dom), Generator.from_expression("exp(x)", dom),
        probes=3, threshold=1e-6,
    )
    assert gaps["3"] == three.max_value_gap
    assert gaps["3"] < gaps["50"]


def test_verify_equality_requires_gen2(capsys):
    code, _, err = run(capsys, "--gen", "x", "verify", "equality")
    assert code == 2
    assert "--gen2" in err


def test_verify_equality_counts_must_match(capsys):
    code, _, err = run(
        capsys, "--gen", "x", "--gen", "2*x", "--gen2", "x", "verify", "equality"
    )
    assert code == 2


def test_verify_characterize_demo_means(capsys):
    code, payload, _ = run_json(capsys, "--samples", "50", "verify", "characterize")
    assert code == 0
    details = payload["details"]
    assert details["lehmer2"].startswith("refuted")
    assert details["blend0.7"].startswith("refuted")
    assert "lehmer2:witness" in details
    verdicts = {r["check_name"]: r["verdict"] for r in payload["results"]}
    assert verdicts["lehmer2:verdict"] == "refuted"
    assert verdicts["blend0.7:verdict"] == "refuted"
    assert verdicts["lehmer2:strict-monotonicity"] == "fail"
    assert verdicts["blend0.7:strict-monotonicity"] == "pass"


def test_verify_characterize_accepts_system(capsys):
    code, payload, _ = run_json(
        capsys, "--gen", "x", "--gen", "2*x", "--samples", "20",
        "verify", "characterize",
    )
    assert code == 0
    label = next(iter(payload["details"]))
    assert "consistent" in payload["details"][label]


# --- determinism -------------------------------------------------------------------


def test_same_seed_gives_identical_reports(capsys):
    argv = ["--seed", "42", "--samples", "20", "verify", "m1"]
    _, first, _ = run_json(capsys, *argv)
    _, second, _ = run_json(capsys, *argv)
    assert strip_volatile(first) == strip_volatile(second)
    assert first["runtime_ms"] != 0.0  # volatile part was really populated


def test_repeated_calls_in_one_process_carry_nothing_over(tmp_path, capsys):
    from meanlab import cli

    defaults = ["--format", "json", "--samples", "3", "verify", "m1"]
    cli.build_parser.cache_clear()
    _, fresh, _ = run_json(capsys, *defaults)
    target = tmp_path / "m1.json"
    code, out, _ = run(capsys, "--format", "json", "--output", str(target), "--interval", "0.1,5",
                       "--gen", "x", "--gen", "x^3", "--samples", "3", "verify", "m1")
    assert (code, out) == (0, "")
    # the parser fails after it has taken --gen and --gen2
    code, _, err = run(capsys, "--gen", "x^2", "--gen2", "x", "--format", "xml", "verify", "m1")
    assert code == 2 and "invalid choice" in err
    code, again, _ = run_json(capsys, *defaults)
    assert code == 0
    assert again["config"]["generators"] == ["x", "2*x"]
    assert again["config"]["generators2"] == []
    assert strip_volatile(again) == strip_volatile(fresh)
    code, equality, _ = run_json(capsys, "--gen", "x", "--gen2", "2*x+1", "verify", "equality")
    assert (code, equality["details"]["verdict"]) == (0, "equal")
    assert equality["config"]["generators"] == ["x"]
    assert json.loads(target.read_text())["config"]["generators"] == ["x", "x^3"]
    # one parser served every call
    assert cli.build_parser.cache_info().misses == 1


def test_different_seeds_differ(capsys):
    _, a, _ = run_json(capsys, "--seed", "5", "--samples", "20", "verify", "m1")
    _, b, _ = run_json(capsys, "--seed", "6", "--samples", "20", "verify", "m1")
    assert strip_volatile(a) != strip_volatile(b)


# --- formats and output ---------------------------------------------------------------


def test_csv_schema(capsys):
    code, out, _ = run(capsys, "--format", "csv", "--samples", "5", "verify", "m1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == RESULT_COLUMNS
    assert len(rows) == 6
    assert all(len(r) == len(RESULT_COLUMNS) for r in rows)
    float(rows[1][4])  # residual column parses as a number


def test_text_format_mentions_command(capsys):
    code, out, _ = run(capsys, "--samples", "5", "verify", "m1")
    assert code == 0
    assert out.startswith("meanlab verify")
    assert "done in" in out


def test_output_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--format", "json", "--output", str(target), "--gen", "x", "eval", "2"
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["details"]["value"] == "2"


def test_output_to_missing_directory_exits_4(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    code, _, err = run(capsys, "--output", str(target), "--gen", "x", "eval", "2")
    assert code == 4
    assert "cannot write report" in err


# --- exit codes -------------------------------------------------------------------------


@pytest.mark.parametrize("argv,want", [
    (["--tol", "nan", "--samples", "3", "verify", "m1"], 2),
    (["--gen", "y", "eval", "1"], 2),
    (["--gen", "x", "--gen", "2*x", "eval", "1"], 2),
    (["--interval", "0.1,10", "--gen", "log(x)", "eval", "20"], 2),
    (["--interval", "0,inf", "--gen", "x", "eval", "1"], 2),
    (["--interval=-1,1", "--gen", "log(x)", "eval", "0.5"], 2),
    (["--gen", "x", "verify", "gbs"], 2),
    (["--gen", "x", "verify", "equality"], 2),
    (["--output", "{dir}", "--gen", "x", "eval", "2"], 4),
    (["--interval", "1,2", "--gen", "x" + "^1" * 2000, "eval", "1.5"], 2),
    (["--interval", "1,2", "--gen", "+".join(["x"] * 5000), "eval", "1.5"], 2),
    (["--gen", "x^1e400", "eval", "1"], 2),
    # a sum of generator values past the largest float: never a value
    (["--interval=1e300,1.7e308", "--gen", "x", "eval", "1e308", "1.5e308"], 4),
    (["--interval=1e300,1.7e308", "--gen", "x", "--gen", "x", "eval", "1e308", "1.5e308"], 4),
], ids=["tol-nan", "unknown-identifier", "point-count", "point-outside", "infinite-endpoint",
        "nonfinite-on-grid", "gbs-one-gen", "equality-no-gen2", "unwritable-output",
        "deep-power", "deep-sum", "infinite-constant", "qam-target-overflows",
        "gqam-sum-overflows"])
def test_hostile_input_exits_with_a_documented_code(capsys, tmp_path, argv, want):
    # the contract: a documented exit code, no traceback, and on 2 or 4 one
    # line on stderr that names the program; a directory is not writable as
    # a report
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == want
    assert out == ""
    assert [line.startswith("meanlab: ") for line in err.splitlines()] == [True]


@pytest.mark.parametrize("argv,details", [
    (["--gen", "x/4", "--gen", "x/4", "eval", "1e308", "1.5e308"], {"value": "1.25e+308"}),
    (["--gen", "x/4", "--gen", "x/4", "compose", "1e308", "1.5e308"],
     {"limit": "1.25e+308", "iterations": "1"}),
    (["--gen", "x/4", "--gen", "x/4", "--samples", "3", "verify", "m1"], {"verdict": "pass"}),
], ids=["eval", "compose", "verify-m1"])
def test_coordinates_whose_sum_overflows_have_a_mean(capsys, argv, details):
    # the orbit's mean and every midpoint are taken without overflow
    code, payload, err = run_json(capsys, "--interval=1e300,1.7e308", *argv)
    assert (code, err) == (0, "")
    assert details.items() <= payload["details"].items()


# --- argument handling ------------------------------------------------------------------


def test_interval_rejects_bracket_notation():
    with pytest.raises(UsageError):
        parse_interval("(0,10)")
    with pytest.raises(UsageError):
        parse_interval("[1,2]")


def test_interval_validation(capsys):
    assert run(capsys, "--interval", "0,10,20", "--gen", "x", "eval", "1")[0] == 2
    assert run(capsys, "--interval", "a,b", "--gen", "x", "eval", "1")[0] == 2
    assert run(capsys, "--interval", "5,1", "--gen", "x", "eval", "6")[0] == 2


def test_a_reversed_interval_is_written_open(capsys):
    # intervals are open, and the message writes the parsed ends so
    assert run(capsys, "--interval", "1,0", "eval", "1") == (
        2, "", "meanlab: interval '1,0': interval requires lo < hi, got (1.0, 0.0)\n")


def test_an_interval_whose_width_overflows_is_a_usage_error(capsys):
    code, out, err = run(capsys, "--interval=-1.7e308,1.7e308", "--gen", "x", "eval", "1", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("meanlab: interval '-1.7e308,1.7e308': ")
    assert "overflows" in err


def test_characterize_runs_on_an_interval_narrower_than_its_inset(capsys):
    # lo + 1e-9 * width rounds back to lo here; the sampled points must
    # still be inside the open interval
    code, out, err = run(capsys, "--interval", "1,1.0000001", "--gen", "x", "--gen", "2*x",
                         "--samples", "3", "verify", "characterize")
    assert (code, err) == (0, "")
    assert "consistent" in out


# each command's settings when no --tol, --samples, --max-iter or --gen
# is given: (tolerance, samples, max_iterations, generators)
@pytest.mark.parametrize("argv,resolved", [
    (["eval", "1", "2"], (None, 100, 500, ("x", "2*x"))),
    (["compose", "1", "7"], (1e-10, 100, 500, ("x", "2*x"))),
    (["verify", "m1"], (1e-7, 100, 2000, ("x", "2*x"))),
    (["verify", "gbs"], (1e-7, 100, 500, ("x", "2*x"))),
    (["verify", "bs"], (1e-9, 100, 500, ("x^2",))),
    (["verify", "as"], (1e-9, 100, 500, ("x^2",))),
    (["verify", "equality"], (1e-6, 50, 500, ("x", "2*x"))),
    (["verify", "characterize"], (1e-7, 1000, 4000, ())),
], ids=["eval", "compose", "m1", "gbs", "bs", "as", "equality", "characterize"])
def test_each_command_resolves_its_own_defaults(argv, resolved):
    from meanlab import cli

    config = cli._resolve(cli.build_parser().parse_args(argv))
    assert (config.tolerance, config.samples, config.max_iterations,
            config.generators) == resolved
    # the config holds the parsed interval, which echoes as a pair
    assert type(config.interval) is Interval and config.interval == (0.0, 10.0)


@pytest.mark.parametrize("which", ["bs", "as"])
def test_one_generator_suites_run_without_gen(capsys, which):
    code, payload, err = run_json(capsys, "verify", which)
    assert (code, err) == (0, "")
    assert payload["config"]["generators"] == ["x^2"]
    assert [row["verdict"] for row in payload["results"]] == ["pass"] * 100


def test_an_unknown_suite_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    code, out, err = run(capsys, "verify", "bogus")
    assert (code, out) == (2, "")
    assert err == (
        "usage: meanlab verify [-h] {m1,gbs,bs,as,equality,characterize}\n"
        "meanlab verify: error: argument which: invalid choice: 'bogus'"
        " (choose from 'm1', 'gbs', 'bs', 'as', 'equality', 'characterize')\n"
    )


def test_bad_sample_and_iteration_counts(capsys):
    assert run(capsys, "--samples", "0", "verify", "m1")[0] == 2
    assert run(capsys, "--max-iter", "0", "--gen", "x", "compose", "1", "2")[0] == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [
    ("--gen", "x", "--gen", "x^3", "--interval", "0.1,5", "compose", "0.2", "4.8"),
    ("--samples", "3", "verify", "m1"),
    ("--gen", "x", "--gen2", "2*x", "verify", "equality"),
])
def test_tol_must_be_finite_and_nonnegative(capsys, tol, command):
    # a NaN gap tolerance would stop the orbit at once and report the
    # start's midpoint as a converged limit
    code, out, err = run(capsys, "--tol", tol, *command)
    assert code == 2
    assert out == ""
    assert "--tol must be a finite number at least 0" in err


def test_negative_seed_is_usage_error(capsys):
    code, _, err = run(capsys, "--seed", "-1", "--samples", "3", "verify", "m1")
    assert code == 2
    assert "--seed must be at least 0" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_format_rejected_by_parser(capsys):
    assert main(["--format", "yaml", "--gen", "x", "eval", "1"]) == 2
    capsys.readouterr()


def test_unknown_log_level_warns_and_runs(capsys, monkeypatch):
    monkeypatch.setenv("MEANLAB_LOG", "shouty")
    code, out, err = run(capsys, "--gen", "x", "eval", "2")
    assert code == 0
    assert "unknown MEANLAB_LOG" in err
    assert "meanlab eval" in out


# the generators are linear, so the pinned bytes do not depend on the
# platform's libm
@pytest.mark.parametrize("which,gens", [
    ("m1", ("x", "2*x")), ("gbs", ("x", "2*x")), ("bs", ("x",)), ("as", ("x",)),
])
def test_verify_csv_bytes_are_pinned(capsys, which, gens):
    argv = ["--format", "csv", "--seed", "0", "--samples", "10"]
    for g in gens:
        argv += ["--gen", g]
    code, out, _ = run(capsys, *argv, "verify", which)
    assert code == 0
    assert out.encode() == (DATA / f"verify_{which}.csv").read_bytes()


# pinned JSON reports: a fused compose trace, characterize, whose demo
# means run the generic Gauss loop, the equality and generalized
# bisymmetry suites, m1 on the benchmark's slowly contracting system and
# a compose of the variadic log(x) mean pinned to three points; only
# + - * / and powers with integer exponents enter, but for the two
# log(x) reports: the geometric mean of the compose and the verdicts of
# characterize, which examines that variadic mean at arity 2
@pytest.mark.parametrize("name,argv", [
    ("compose_x_2x", ["--gen", "x", "--gen", "2*x", "compose", "1", "7"]),
    ("characterize_demo", ["--samples", "30", "verify", "characterize"]),
    ("characterize_x_2x", ["--gen", "x", "--gen", "2*x", "--samples", "30",
                           "verify", "characterize"]),
    ("characterize_x_x2_x3", ["--gen", "x", "--gen", "x^2", "--gen", "x^3",
                              "--interval", "0.1,5", "--samples", "30",
                              "verify", "characterize"]),
    ("equality_affine_pair", ["--gen", "x", "--gen", "2*x", "--gen2", "3*x+1",
                              "--gen2", "6*x-2", "verify", "equality"]),
    ("equality_x_x2", ["--gen", "x", "--gen2", "x^2", "verify", "equality"]),
    ("verify_gbs_x_x2_x3", ["--gen", "x", "--gen", "x^2", "--gen", "x^3",
                            "--interval", "0.1,5", "--samples", "8", "verify", "gbs"]),
    ("characterize_log_x", ["--gen", "log(x)", "--interval", "0.1,10", "--samples", "30",
                            "verify", "characterize"]),
    ("verify_m1_x_x2_x3", ["--interval", "0.1,5", "--gen", "x", "--gen", "x^2", "--gen", "x^3",
                           "--samples", "20", "--seed", "1", "verify", "m1"]),
    ("verify_m1_x3_2x3_small", ["--gen", "x^3", "--gen", "2*x^3", "--interval", "1e-4,5e-3",
                                "--samples", "20", "verify", "m1"]),
    ("compose_log_x", ["--interval", "0.1,10", "--gen", "log(x)", "compose", "1", "4", "7"]),
])
def test_json_reports_are_pinned(capsys, name, argv):
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    text = json.dumps(strip_volatile(payload), sort_keys=True, indent=2) + "\n"
    assert text.encode() == (DATA / f"{name}.json").read_bytes()


def test_perfbench_hooks_still_resolve(capsys, monkeypatch):
    # the benchmark's tracer swaps these names from outside the package
    monkeypatch.syspath_prepend(str(ROOT))
    import meanlab
    from meanlab import Generator, GeneratorSystem, Interval, cli, gauss, kernels
    from perfbench.tracing import KERNELS, Tracer, install

    # the harness records both in the environment line of every run
    assert meanlab.active_backend() == "python"
    assert not kernels.HAS_NUMBA
    # and wraps each kernel through ACTIVE._replace
    assert kernels.ACTIVE._fields == KERNELS

    dom = Interval(0.1, 5.0)
    callables = GeneratorSystem([Generator.from_callable(lambda x: x**3, dom),
                                 Generator.from_callable(lambda x: 2 * x**3, dom)])
    tree = meanlab.parse("x^2")
    active, iterate = kernels.ACTIVE, gauss.gauss_iterate
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert cli.main(["--gen", "x", "--gen", "2*x", "compose", "1", "7"]) == 0
        assert cli.main(["--samples", "3", "verify", "m1"]) == 0
        assert gauss.composition_closed_form_check(callables, samples=3).passed
        # a generator built from a tree is parsed nowhere: only its body's
        # lowering, through generator.compile_expr, is in the dsl span
        lowered = tracer.calls["dsl"]
        Generator.from_expression(tree, dom, label="square").body()
        # one mean of a system and one of a single generator, whose solve
        # is the kernel's invert
        assert cli.main(["--gen", "x", "--gen", "2*x", "eval", "0.5", "3"]) == 0
        assert cli.main(["--interval", "0.1,10", "--gen", "log(x)", "eval", "1", "4"]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    assert {"kernels.cyclic_gauss", "gauss", "cli.main"} <= set(tracer.calls)
    assert tracer.calls["kernels.invert"] > 0
    assert tracer.calls["kernels.gqam"] > 0
    assert lowered > 0
    assert tracer.calls["dsl"] > lowered
    # every orbit, callable ones included, runs in a kernel span
    assert tracer.calls["kernels.cyclic_gauss"] == tracer.calls["gauss"]
    assert kernels.ACTIVE is active
    assert gauss.gauss_iterate is iterate


def _subprocess_env(**extra):
    # the subprocess imports the tree under test, installed or not
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_export_lists_resolve():
    # a name left in __all__ after its definition is gone breaks import *
    import meanlab
    import meanlab.dsl

    for module in (meanlab, meanlab.dsl):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_console_script_roundtrip():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["meanlab"]
    module, func = target.split(":")
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}; {module}.{func}()",
         "--format", "json", "--gen", "x", "--gen", "2*x", "eval", "0.5", "3"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["details"]["value"] == "2.166667"


def test_meanlab_backend_is_no_longer_read():
    # even the value that once stopped the program is ignored
    out = subprocess.run(
        [sys.executable, "-m", "meanlab", "eval", "1", "2"],
        capture_output=True, text=True, env=_subprocess_env(MEANLAB_BACKEND="numba"),
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert "meanlab eval" in out.stdout


NUMPY_PROBE = """
import contextlib, io, sys
import meanlab
from meanlab import cli
loaded = ["numpy" in sys.modules]
meanlab.warm_up()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["eval", "1", "2"]), cli.main(["compose", "1", "7"]),
             cli.main(["--interval", "0.1,5", "--gen", "x", "--gen", "x^3",
                       "--max-iter", "2000", "compose", "0.2", "4.8"])]
    loaded.append("numpy" in sys.modules)
    for argv in (["verify", "m1"], ["verify", "characterize"], ["verify", "gbs"],
                 ["--gen", "x", "verify", "bs"], ["--gen", "x", "verify", "as"],
                 ["--gen", "x", "--gen2", "2*x+1", "verify", "equality"]):
        codes.append(cli.main(["--samples", "2", *argv]))
        loaded.append("numpy" in sys.modules)
print(codes, loaded)
"""


def test_import_eval_and_compose_leave_numpy_unloaded():
    # seeded sampling and the affine fit are pure Python, so import,
    # warm-up, eval, compose and every verify suite leave numpy unloaded
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True,
                         env=_subprocess_env())
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"{[0] * 9} {[False] * 8}\n"


def test_verify_runs_where_numpy_cannot_be_imported():
    # a None entry in sys.modules makes any "import numpy" raise
    argv = ["meanlab", "--samples", "5", "verify", "m1"]
    code = ("import runpy, sys; sys.modules['numpy'] = None; "
            f"sys.argv = {argv!r}; runpy.run_module('meanlab', run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_subprocess_env())
    assert (out.returncode, out.stderr) == (0, "")
    assert "meanlab verify" in out.stdout


def _imported_packages(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_neither_imports_nor_requires_numpy():
    # numpy is a test extra: no module of the package may import it, and
    # the install must not pull it in
    offenders = [f"{path.relative_to(ROOT)}:{line}"
                 for path in sorted((ROOT / "src" / "meanlab").rglob("*.py"))
                 for line, name in _imported_packages(path) if name == "numpy"]
    assert offenders == []
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    assert [d for d in deps if re.match(r"numpy\b", d.strip(), re.IGNORECASE)] == []


@pytest.mark.parametrize("flags", [[], ["-W", "error"]])
def test_overflow_is_one_error_line(flags):
    # the body's NaN is the signal, and no warning is raised on the way
    out = subprocess.run(
        [sys.executable, *flags, "-m", "meanlab", "--interval", "1,2",
         "--gen", "x*1e300*1e10", "eval", "1.5", "1.6"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert out.returncode == 2
    assert out.stderr.startswith("meanlab: ")
    assert out.stderr.count("\n") == 1


def _run_importing(*args, **env):
    # the run and the set of modules it imported, read from -X importtime
    out = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                         text=True, env=_subprocess_env(**env))
    return out, {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                 if line.startswith("import time:")}


@pytest.mark.parametrize("fmt,expected", [("json", set()), ("csv", {"csv"})])
def test_cold_eval_imports_neither_dataclasses_nor_logging(fmt, expected):
    # records are named tuples, quiet configures no logging, and csv is
    # imported by the csv writer alone
    _, bare = _run_importing("-c", "pass")
    out, names = _run_importing("-m", "meanlab", "--format", fmt, "--gen", "x", "--gen", "2*x",
                                "eval", "0.5", "3", MEANLAB_LOG="quiet")
    assert out.returncode == 0
    assert "2.166666666666667" in out.stdout
    assert (names - bare) & {"dataclasses", "inspect", "logging", "csv"} == expected


@pytest.mark.parametrize("level,argv,lines", [
    ("info", ["--samples", "2", "verify", "m1"],
     [r"meanlab\.gauss: closed-form check \[x,2\*x\]: 2 samples, max residual \S+ \(pass\)"]),
    ("info", ["--samples", "2", "verify", "characterize"],
     [r"meanlab\.bisymmetry: characterize\[lehmer2\]: refuted: failed"
      r" strict-monotonicity, generalized-bisymmetry",
      r"meanlab\.bisymmetry: characterize\[blend0\.7\]: refuted: failed generalized-bisymmetry"]),
    ("trace", ["compose", "1", "7"],
     [r"meanlab\.gauss: cyclic\[gqam\[x,2\*x\]\] converged in \d+ steps"
      r" \(gap stop, gap \S+\)"]),
    ("info", ["compose", "1", "7"], []),
    ("quiet", ["--samples", "2", "verify", "characterize"], []),
])
def test_log_levels_show_their_records_on_stderr(level, argv, lines):
    out = subprocess.run([sys.executable, "-m", "meanlab", *argv], capture_output=True,
                         text=True, env=_subprocess_env(MEANLAB_LOG=level))
    assert out.returncode == 0
    got = out.stderr.splitlines()
    assert len(got) == len(lines)
    for pattern, line in zip(lines, got):
        assert re.fullmatch(pattern, line), line
