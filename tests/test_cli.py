"""Command-line behavior: exit codes, report formats, determinism.

Everything drives `main(argv)` in-process; subprocess tests at the end
cover the console-script target named in pyproject.toml and a bad
backend name, which is read at import.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from meanlab.cli import main, parse_interval
from meanlab.errors import UsageError
from meanlab.report import RESULT_COLUMNS, strip_volatile

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
    assert err == ("meanlab: inversion of 'x^20000.0 + x^20000.0' did not reach"
                   " tol = 1e-12 within 200 steps\n")


@pytest.mark.parametrize("budget", ["100000000000000000", "100000000000000000000"])
def test_compose_unallocatable_budget_exits_4(capsys, budget):
    # the trace of max_iter + 1 rows is out of memory (1e17), or past
    # numpy's largest array (1e20): an operational failure, no traceback
    code, out, err = run(capsys, "--max-iter", budget, "compose", "1", "7")
    assert code == 4
    assert out == ""
    assert err == f"meanlab: max_iter = {budget} is too large to allocate its trace\n"


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
    code, payload, _ = run_json(
        capsys, "--interval", "0.1,5", "--gen", "x", "--gen", "x^3",
        "--max-iter", "2000", "compose", "1", "3",
    )
    assert code == 0
    gaps = [r["residual"] for r in payload["results"] if r["check_name"] == "gap"]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-10


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
# means run the generic Gauss loop, and the equality and generalized
# bisymmetry suites; only + - * / and powers with integer exponents enter
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
])
def test_json_reports_are_pinned(capsys, name, argv):
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    text = json.dumps(strip_volatile(payload), sort_keys=True, indent=2) + "\n"
    assert text.encode() == (DATA / f"{name}.json").read_bytes()


def test_perfbench_hooks_still_resolve(capsys, monkeypatch):
    # the benchmark's tracer swaps these names from outside the package
    monkeypatch.syspath_prepend(str(ROOT))
    from meanlab import cli, gauss, kernels
    from perfbench.tracing import Tracer, install

    active, iterate = kernels.ACTIVE, gauss.gauss_iterate
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert cli.main(["--gen", "x", "--gen", "2*x", "compose", "1", "7"]) == 0
        assert cli.main(["--samples", "3", "verify", "m1"]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    assert {"kernels.cyclic_gauss", "gauss", "cli.main"} <= set(tracer.calls)
    assert kernels.ACTIVE is active
    assert gauss.gauss_iterate is iterate


def _subprocess_env(**extra):
    # the subprocess imports the tree under test, installed or not
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_console_script_roundtrip():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["meanlab"]
    module, func = target.split(":")
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}; {module}.{func}()",
         "--format", "json", "--gen", "x", "--gen", "2*x", "eval", "0.5", "3"],
        capture_output=True, text=True, env=_subprocess_env(MEANLAB_BACKEND="numpy"),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["details"]["value"] == "2.166667"


def test_unknown_backend_warns_and_runs():
    out = subprocess.run(
        [sys.executable, "-m", "meanlab", "eval", "1", "2"],
        capture_output=True, text=True, env=_subprocess_env(MEANLAB_BACKEND="bogus"),
    )
    assert out.returncode == 0
    assert out.stderr == "meanlab: unknown MEANLAB_BACKEND value 'bogus', using auto\n"
    assert "meanlab eval" in out.stdout
