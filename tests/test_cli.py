"""End-to-end coverage of the command-line interface."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import growthcert
from conftest import FUZZ_FAMILIES, FUZZ_NIGHTLY, fuzz_model, mild_model, random_positive_model
from growthcert import (Policy, eigensolver, estimate_growth, jsonio, load_model, save_model,
                        solve_eigen)
from growthcert.cli import run


def _invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def _invoke_json(capsys, *argv):
    code, out = _invoke(capsys, *argv)
    return code, json.loads(out)


def _write_fib(capsys, tmp_path) -> str:
    path = str(tmp_path / "fib.json")
    code, doc = _invoke_json(capsys, "gen", "graph", "--adjacency", "11;10",
                             "--out", path)
    assert code == 0
    assert doc == {"family": "graph", "out": path, "states": 2, "actions": 1}
    return path


STRIP_TIMINGS = re.compile(r'"timings_ms": \{[^}]*\}', re.S)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_gen_then_validate_round_trip(capsys, tmp_path):
    path = str(tmp_path / "ring.json")
    code, _ = _invoke(capsys, "gen", "graph", "--adjacency", "110;101;010",
                      "--out", path)
    assert code == 0
    code, doc = _invoke_json(capsys, "validate", path)
    assert code == 0
    assert doc["gain_irreducible"] is True
    assert doc["stochastic_ok"] is True
    assert doc["states"] == 3 and doc["actions"] == 1


def test_solve_fibonacci_with_fallback(capsys, tmp_path):
    path = _write_fib(capsys, tmp_path)
    code, doc = _invoke_json(capsys, "solve", path, "--tol", "1e-10",
                             "--eps-fallback", "1e-8",
                             "--max-iter", "1" + "0" * 400)  # past float range, still valid
    assert code == 0
    golden = (1 + math.sqrt(5)) / 2
    assert abs(doc["lambda"] - math.log(golden)) <= 1e-10
    assert doc["regularized"] is False and doc["epsilon"] == 0  # nothing to smooth
    assert doc["converged"] is True
    assert abs(doc["lambda"] - math.log(doc["rho"])) <= 1e-12
    assert doc["cw_lower"] <= doc["rho"] <= doc["cw_upper"]
    assert doc["policy"]["kind"] == "deterministic"
    cert = doc["certificate"]
    assert cert["gap"] <= 10 * 1e-10 * max(1.0, abs(doc["lambda"]))
    assert cert["primal_lower"] - 1e-9 <= doc["lambda"] <= cert["dual_upper"] + 1e-9


def test_solve_output_is_byte_stable(capsys, tmp_path):
    model = random_positive_model(5)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    code_a, out_a = _invoke(capsys, "solve", path)
    code_b, out_b = _invoke(capsys, "solve", path)
    assert code_a == code_b == 0
    assert STRIP_TIMINGS.sub("", out_a) == STRIP_TIMINGS.sub("", out_b)
    assert out_a.endswith("\n")
    # spot-check the 17-significant-digit float convention
    rho = json.loads(out_a)["rho"]
    assert f'"rho": {rho:.17g}' in out_a


def test_solve_agrees_with_library_call(capsys, tmp_path):
    model = random_positive_model(3)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    code, doc = _invoke_json(capsys, "solve", path)
    assert code == 0
    sol = solve_eigen(model)
    assert doc["lambda"] == sol.log_rho
    assert doc["psi"] == list(sol.psi)


def test_variational_command_on_positive_model(capsys, tmp_path):
    model = random_positive_model(3)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    code, doc = _invoke_json(capsys, "variational", path)
    assert code == 0
    sol = solve_eigen(model)
    assert doc["residual"] <= 1e-6
    assert doc["value"] <= sol.log_rho + 1e-9
    assert doc["dual_upper"] >= sol.log_rho - 1e-9
    assert doc["gap"] == doc["dual_upper"] - doc["value"]
    assert doc["gap"] <= 1e-6
    eta = np.array(doc["eta"])
    assert abs(eta.sum() - 1.0) <= 1e-9


def test_bounds_command(capsys, tmp_path):
    path = _write_fib(capsys, tmp_path)
    fpath = tmp_path / "f.json"
    fpath.write_text("[1.0, 0.6]\n")
    code, doc = _invoke_json(capsys, "bounds", path, "--f", str(fpath))
    assert code == 0
    assert abs(doc["lower"] - 1.6) <= 1e-12
    assert abs(doc["upper"] - 5.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("f", ["[5e-324, 1.0]", "[1e308, 1e308]"])
def test_bounds_with_an_overflowing_ratio_reports_inf_silently(capsys, tmp_path, f):
    # a ratio past the float range, in the division or in T f itself
    path = _write_fib(capsys, tmp_path)
    fpath = tmp_path / "f.json"
    fpath.write_text(f + "\n")
    code = run(["bounds", path, "--f", str(fpath)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    doc = json.loads(captured.out)
    assert doc["upper"] == "inf"
    assert 0 < doc["lower"] <= (1 + 5 ** 0.5) / 2


def test_mc_command_matches_library(capsys, tmp_path):
    model = mild_model(2)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    policy = Policy.uniform(model.n_states, model.n_actions)
    ppath = tmp_path / "policy.json"
    ppath.write_text(json.dumps({"phi": policy.phi.tolist()}))
    code, doc = _invoke_json(capsys, "mc", path, "--policy", str(ppath),
                             "--n", "50", "--paths", "400", "--seed", "11")
    assert code == 0
    est = estimate_growth(model, policy, n=50, paths=400, seed=11)
    assert doc["point"] == est.point
    assert doc["stderr"] == est.stderr
    assert doc["all_paths_dead"] is False


def test_eps_sweep_writes_matching_csv(capsys, tmp_path):
    path = _write_fib(capsys, tmp_path)
    out = tmp_path / "sweep.csv"
    code, text = _invoke(capsys, "eps-sweep", path, "--grid", "1e-2,1e-4,1e-6",
                         "--out", str(out))
    assert code == 0
    assert out.read_text() == text
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon,lambda_eps,converged,iterations"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[1]) for r in rows]
    assert values[0] >= values[1] >= values[2] - 1e-9
    assert all(r[2] == "true" for r in rows)


def test_eps_sweep_writes_a_stopped_point_with_its_partial_rate(capsys, tmp_path):
    # the smoothed companion of this wide draw stops at a repeating psi
    path = str(tmp_path / "wide3.json")
    save_model(fuzz_model(3, "wide"), path)
    out = tmp_path / "sweep.csv"
    code, text = _invoke(capsys, "eps-sweep", path, "--grid", "1e-3", "--out", str(out))
    assert code == 0
    assert out.read_text() == text
    header, row = text.strip().splitlines()
    assert header == "epsilon,lambda_eps,converged,iterations"
    epsilon, lam, converged, iterations = row.split(",")
    assert float(epsilon) == 1e-3 and converged == "false"
    assert math.isfinite(float(lam)) and int(iterations) > 0


def test_gen_exit_and_portfolio_families(capsys, tmp_path):
    epath = str(tmp_path / "exit.json")
    code, doc = _invoke_json(
        capsys, "gen", "exit",
        "--p", "1,0,0,0,0;0.5,0,0.5,0,0;0,0.5,0,0.5,0;0,0,0.5,0,0.5;0,0,0,0,1",
        "--s0", "0,4", "--out", epath,
    )
    assert code == 0 and doc["states"] == 3
    code, doc = _invoke_json(capsys, "solve", epath)
    assert code == 0
    assert abs(doc["lambda"] - math.log(math.cos(math.pi / 4))) <= 1e-8

    spath = tmp_path / "support.json"
    spath.write_text(json.dumps([[[[0.6, [1.15]], [0.4, [0.9]]]]]))
    ppath = str(tmp_path / "portfolio.json")
    code, doc = _invoke_json(
        capsys, "gen", "portfolio", "--q", "1.0", "--theta", "2.0",
        "--r-bank", "0.05", "--grid", "0.0;0.5;1.0",
        "--support", str(spath), "--out", ppath,
    )
    assert code == 0 and doc["actions"] == 3
    model = load_model(ppath)
    assert model.n_states == 1
    assert "theta=2" in model.metadata


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------

def test_validate_non_stochastic_model_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "actions": ["u"],
        "kernel": [[[0.5, 0.4]], [[0.5, 0.5]]],
        "weights": [[[1.0, 1.0]], [[1.0, 1.0]]],
    }))
    code, doc = _invoke_json(capsys, "validate", str(path))
    assert code == 2
    assert doc["error"]["type"] == "NotStochastic"
    assert doc["error"]["violations"] == [[0, 0]]


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, doc = _invoke_json(capsys, "validate", str(path))
    assert code == 2
    assert doc["error"]["type"] == "ParseError"
    assert "line 1" in doc["error"]["message"]


def test_mc_policy_shape_mismatch_exits_2_typed(capsys, tmp_path):
    fib = _write_fib(capsys, tmp_path)
    policy = tmp_path / "three_rows.json"
    policy.write_text('{"phi": [[1.0], [1.0], [1.0]]}')
    code, doc = _invoke_json(capsys, "mc", fib, "--policy", str(policy),
                             "--n", "5", "--paths", "40")
    assert code == 2
    assert doc["error"] == {"type": "DimensionMismatch",
                            "message": "policy shape (3, 1) does not match model (2, 1)"}


def _reader_error(capsys, tmp_path, command, content) -> dict:
    """The error of ``command`` on an input file holding ``content``: exit 2, one document."""
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    path, out = str(path), str(tmp_path / "out.json")
    fib = _write_fib(capsys, tmp_path) if command in ("mc", "bounds") else None
    argv = {"validate": ["validate", path],
            "bounds": ["bounds", fib, "--f", path],
            "mc": ["mc", fib, "--policy", path, "--n", "5", "--paths", "40"],
            "exit": ["gen", "exit", "--p", "1,0,0;0.5,0,0.5;0,0,1", "--s0", "a", "--out", out],
            "matrix": ["gen", "exit", "--p", "1,x;0,1", "--s0", "0", "--out", out],
            "adjacency": ["gen", "graph", "--adjacency", "1x;10", "--out", out],
            "portfolio": ["gen", "portfolio", "--q", "1.0", "--theta", "2.0", "--r-bank", "0.05",
                          "--grid", "0.0;1.0", "--support", path, "--out", out]}[command]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    return json.loads(captured.out)["error"]  # exactly one document


@pytest.mark.parametrize("command, text, expected", [
    # numbers written as JSON strings: numpy parses "1.0" under dtype=float
    ("validate", '{"states": ["a"], "actions": ["u"], "kernel": [[["1.0"]]], '
                 '"weights": [[[1.0]]]}', "SchemaError"),
    ("mc", '{"phi": [["1.0"], [1.0]]}', "SchemaError"),
    ("bounds", '["1.0", 1.0]', "SchemaError"),
    ("mc", '{"phi": [[1.0], [1.0, 0.0]]}', "SchemaError"),
    ("mc", '{"phi": [["a"], [1.0]]}', "SchemaError"),
    ("mc", '{"phi": [{"x": 1}, [1.0]]}', "SchemaError"),
    ("bounds", '["a", 1.0]', "SchemaError"),
    ("bounds", '[[1.0], 1.0]', "SchemaError"),
    ("exit", None, "SchemaError"),
    ("portfolio", '{"x": 1}', "SchemaError"),
    ("portfolio", '[1, 2]', "SchemaError"),
    ("portfolio", '[[[[0.6]]]]', "SchemaError"),
    ("portfolio", '[[[[1.0, ["a"]]]]]', "SchemaError"),
    ("portfolio", '[[[[1.0, [1.1]]]], [[[1.0, [1.1]]]]]', "DimensionMismatch"),
])
def test_malformed_reader_input_exits_2_typed(capsys, tmp_path, command, text, expected):
    assert _reader_error(capsys, tmp_path, command, text)["type"] == expected


_LABELS_AND_TENSORS = '"actions": ["u"], "kernel": [[[1.0]]], "weights": [[[1.0]]]'
_DEEP = "[" * 100_000 + "]" * 100_000  # past the parser's nesting limit on every Python


@pytest.mark.parametrize("command, content, expected, message", [
    ("validate", "[]", "SchemaError", "top level must be an object"),
    ("validate", '{"states": [0], ' + _LABELS_AND_TENSORS + "}", "SchemaError",
     "'states' must be a list of strings"),
    ("validate", '{"states": ["a"], "metadata": 1, ' + _LABELS_AND_TENSORS + "}", "SchemaError",
     "'metadata' must be a string"),
    ("validate", '{"states": ["a"], "actions": ["u"], "kernel": [[1.0]], "weights": [[[1.0]]]}',
     "SchemaError", "'kernel' must be a rank-3 tensor"),
    ("bounds", '{"f": [1.0, 1.0]}', "SchemaError", "vector file must be a JSON array"),
    ("mc", "[[1.0], [1.0]]", "SchemaError", "policy file must be an object with field 'phi'"),
    ("matrix", None, "SchemaError", "cannot parse matrix"),
    ("adjacency", None, "SchemaError", "cannot parse adjacency"),
    # not UTF-8, or nested past the parser's limit: no traceback, one ParseError document
    ("validate", b'{"states": ["\xff"]}', "ParseError", "cannot read model file"),
    ("mc", b'{"phi": [["\xff"]]}', "ParseError", "cannot read policy file"),
    ("bounds", b"[1.0, \xff]", "ParseError", "cannot read vector file"),
    ("validate", _DEEP, "ParseError", "cannot read model file"),
    ("mc", _DEEP, "ParseError", "cannot read policy file"),
    ("bounds", _DEEP, "ParseError", "cannot read vector file"),
], ids=lambda value: "deep" if value is _DEEP else None)
def test_input_checks_exit_2_with_their_typed_document(capsys, tmp_path, command, content,
                                                      expected, message):
    error = _reader_error(capsys, tmp_path, command, content)
    assert error["type"] == expected and message in error["message"], error


def test_missing_file_exits_2(capsys, tmp_path):
    code, doc = _invoke_json(capsys, "solve", str(tmp_path / "absent.json"))
    assert code == 2


def test_solver_budget_exhausted_exits_3_with_report(capsys, tmp_path):
    path = _write_fib(capsys, tmp_path)
    code, doc = _invoke_json(capsys, "solve", path, "--max-iter", "3")
    assert code == 3
    assert doc["converged"] is False
    assert doc["error"]["type"] == "NoConvergence"
    assert doc["certificate"] is None
    assert doc["cw_lower"] <= doc["rho"] <= doc["cw_upper"]


@pytest.mark.parametrize("command, family, seed", [("solve", "wide", 30),
                                                   ("variational", "near-decomposable", 1007)])
def test_fuzz_draw_exits_3_with_one_document_and_no_stderr(capsys, tmp_path, command, family,
                                                            seed):
    # solve: a damped step would underflow an entry of psi to 0;
    # variational: the Newton system is singular in floating point
    path = str(tmp_path / "model.json")
    save_model(fuzz_model(seed, family), path)
    code = run([command, path])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3 and captured.err == ""
    assert doc["error"]["type"] == "NoConvergence"
    if command == "solve":
        assert doc["converged"] is False and doc["iterations"] == 2
        assert "underflows an entry of psi" in doc["error"]["message"]


@pytest.mark.parametrize("family", FUZZ_FAMILIES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=1000)
@example(seed=1001)
@example(seed=1002)
@example(seed=1003)
@example(seed=1004)
@example(seed=1026)
@example(seed=79_256)  # variational: (L - max) / tau overflowed in the action law
@example(seed=4_000_000_008)  # variational: 1 / tau overflowed in the Newton system
@example(seed=5)  # variational: a near-decomposable closure exited 2 (SingularChain)
@example(seed=8)  # solve: rho past 1e154 overflowed to inf (as did 24, 113, 4_000_000_008)
@example(seed=24)
@example(seed=113)
@settings(settings.get_profile(FUZZ_NIGHTLY)
          if settings.get_current_profile_name() == FUZZ_NIGHTLY
          else settings(max_examples=20, derandomize=True),
          deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_families_keep_the_cli_contract(capsys, tmp_path, family, seed):
    # every call ends in a certified answer or a typed error: exit 0, 2 or 3
    # with one JSON document, no NaN and nothing on stderr (warnings are errors);
    # a converged solve has a finite rho and lambda, and none fails its own
    # eigensolution check; variational never calls a valid model's failed
    # closure a validation error; the seed draws the sizes (2..6 states,
    # 1..3 actions) and the entries
    def no_nan(constant):
        raise AssertionError(f"{constant} in the document")

    model = fuzz_model(seed, family)
    path, policy = str(tmp_path / "model.json"), str(tmp_path / "policy.json")
    save_model(model, path)
    jsonio.dump({"phi": Policy.uniform(model.n_states, model.n_actions).phi}, policy)
    capsys.readouterr()
    codes, docs = [], []
    for argv in (["solve", path, "--max-iter", "2000"],
                 ["solve", path, "--eps-fallback", "1e-6"],
                 ["variational", path],
                 ["mc", path, "--policy", policy, "--n", "30", "--paths", "200"]):
        code = run(argv)
        codes.append(code)
        captured = capsys.readouterr()
        assert code in (0, 2, 3) and captured.err == "", argv[0]
        doc = json.loads(captured.out, parse_constant=no_nan)
        docs.append(doc)
        if argv[0] == "solve":
            assert doc.get("error", {}).get("type") != "RowSumViolation", doc
            if doc.get("converged"):
                assert all(isinstance(doc[key], float) and math.isfinite(doc[key])
                           for key in ("rho", "lambda")), doc
        if argv[0] == "variational":
            assert doc.get("error", {}).get("type") != "SingularChain", doc
    # one refusal rule: variational is refused only where solve without a fallback is
    assert codes[2] != 2 or codes[0] == 2, codes
    # one smoothing rule: the fallback smooths exactly what solve without it refuses
    assert docs[1]["regularized"] is (codes[0] == 2), codes


@pytest.mark.parametrize("family, seed, closed", [("near-decomposable", 5, True),
                                                 ("near-decomposable", 6, True),
                                                 ("wide", 11, False)])
def test_variational_closure_with_a_failed_stationary_solve_exits_3(capsys, tmp_path, family,
                                                                     seed, closed):
    # the closure's stationary solve raised SingularChain, which exited 2 on a valid model;
    # with no certificate closed before it, the document is the error alone
    path = str(tmp_path / "model.json")
    save_model(fuzz_model(seed, family), path)
    code = run(["variational", path])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3 and captured.err == ""
    assert doc["error"]["type"] == "NoConvergence"
    assert "could not close a certificate" in doc["error"]["message"]
    if closed:
        assert doc["gap"] > 0 and doc["value"] <= doc["dual_upper"]
    else:
        assert list(doc) == ["error"]


def test_stopped_wide_solve_reports_a_numeric_lambda(capsys, tmp_path):
    # the scaled 2**-k T f underflows in one entry; the bracket on T f does not
    path = str(tmp_path / "model.json")
    save_model(fuzz_model(11, "wide"), path)
    code = run(["solve", path])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3 and captured.err == ""
    assert doc["converged"] is False and doc["error"]["type"] == "NoConvergence"
    assert isinstance(doc["lambda"], float) and math.isfinite(doc["lambda"])
    assert 0 < doc["cw_lower"] <= doc["rho"] <= doc["cw_upper"]


@pytest.mark.parametrize("seed", [3, 10, 55])
def test_wide_draw_with_a_repeating_psi_exits_3_early(capsys, tmp_path, seed):
    # from about iteration 260-290 psi repeats bitwise with period 2, 6 or 3,
    # which used to spend the whole 100,000-step budget
    path = str(tmp_path / "model.json")
    save_model(fuzz_model(seed, "wide"), path)
    code = run(["solve", path])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3 and captured.err == ""
    assert doc["converged"] is False and doc["error"]["type"] == "NoConvergence"
    assert "psi repeats bitwise" in doc["error"]["message"]
    assert doc["iterations"] < 1000


@pytest.mark.parametrize("seed", [8, 24, 113, 4_000_000_008])
def test_wide_draw_with_rho_past_1e154_exits_0(capsys, tmp_path, seed):
    # rho overflowed to inf and the eigensolution check exited 2 (RowSumViolation)
    path = str(tmp_path / "model.json")
    save_model(fuzz_model(seed, "wide"), path)
    code = run(["solve", path])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0 and captured.err == "" and doc["converged"]
    assert all(isinstance(doc[key], float) and math.isfinite(doc[key])
               for key in ("rho", "lambda"))
    assert doc["cw_lower"] <= doc["rho"] <= doc["cw_upper"]
    assert doc["certificate"]["gap"] <= 1e-10


def test_eps_sweep_rising_rates_exit_3_with_an_error_document(capsys, tmp_path, monkeypatch):
    path = _write_fib(capsys, tmp_path)
    rates = iter([0.0, 1.0])
    monkeypatch.setattr(eigensolver, "solve_eigen",
                        lambda model: SimpleNamespace(log_rho=next(rates), iterations=1))
    out = tmp_path / "sweep.csv"
    code, doc = _invoke_json(capsys, "eps-sweep", path, "--grid", "1e-2,1e-4", "--out", str(out))
    assert code == 3 and doc["error"]["type"] == "NoConvergence"
    assert "increased" in doc["error"]["message"] and not out.exists()


def test_usage_errors_exit_4(capsys, tmp_path):
    assert run([]) == 4
    assert run(["frobnicate"]) == 4
    assert run(["bounds", str(tmp_path / "x.json")]) == 4  # missing --f
    assert run(["solve"]) == 4
    model = str(tmp_path / "x.json")
    fib = _write_fib(capsys, tmp_path)
    fib_policy = tmp_path / "fib_policy.json"
    fib_policy.write_text('{"phi": [[1.0], [1.0]]}')
    on_fib = ["mc", fib, "--policy", str(fib_policy), "--n", "5"]
    for argv in (
        ["solve", model, "--max-iter", "0"],
        ["solve", model, "--max-iter", "-3"],
        ["solve", model, "--tol", "nan"],
        ["solve", model, "--tol", "-1"],
        ["solve", model, "--tol", "inf"],
        ["solve", model, "--tol", "0"],
        ["variational", model, "--iters", "0"],
        ["variational", model, "--tol", "nan"],
        ["variational", model, "--iters", "-1"],
        ["variational", model, "--iters", "x"],
        ["variational", model, "--tol", "0"],
        ["variational", model, "--tol", "inf"],
        ["solve", model, "--eps-fallback", "0"],
        ["solve", model, "--eps-fallback", "nan"],
        ["eps-sweep", model, "--grid", "0,1", "--out", model],
        ["eps-sweep", model, "--grid", "1e-2,inf", "--out", model],
        ["eps-sweep", model, "--grid", "1e-2,x", "--out", model],
        ["mc", model, "--policy", model, "--n", "0", "--paths", "10"],
        ["mc", model, "--policy", model, "--n", "5", "--paths", "-1"],
        ["mc", model, "--policy", model, "--n", "5", "--paths", "10", "--batches", "1"],
        ["mc", model, "--policy", model, "--n", "5", "--paths", "10", "--batches", "x"],
        ["variational", model, "--tol", "-1"],
        ["mc", model, "--policy", model, "--n", "5", "--paths", "10", "--seed", "-1"],
        ["eps-sweep", model, "--grid", "1e-2,1e-1", "--out", model],
        ["eps-sweep", model, "--grid", "1e-2,1e-2", "--out", model],
        on_fib + ["--paths", "10", "--batches", "3"],
        on_fib + ["--paths", "20", "--x0", "9"],
        on_fib + ["--paths", "20", "--x0", "-1"],
        on_fib + ["--paths", "40", "--seed", str(2 ** 64)],
        ["gen", "graph", "--adjacency", "11;10", "--out", str(tmp_path / "missing" / "x.json")],
        ["gen", "graph", "--adjacency", "11;10", "--out", str(tmp_path)],
        ["eps-sweep", fib, "--grid", "1e-2", "--out", str(tmp_path / "missing" / "s.csv")],
    ):
        assert run(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" not in captured.err, argv
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(growthcert.__file__)))
    proc = subprocess.run([sys.executable, "-m", "growthcert", "solve", model, "--tol", "nan"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "--tol: must be finite and > 0" in proc.stderr
    capsys.readouterr()  # drain usage noise


def test_reducible_model_without_fallback_exits_2(capsys, tmp_path):
    path = str(tmp_path / "split.json")
    code, _ = _invoke(capsys, "gen", "graph", "--adjacency", "110;110;001",
                      "--out", path)
    assert code == 0
    code, doc = _invoke_json(capsys, "solve", path)
    assert code == 2
    assert doc["error"]["type"] == "ReducibleGain"
    code, doc = _invoke_json(capsys, "solve", path, "--eps-fallback", "1e-8")
    assert code == 0
    assert doc["regularized"] is True and doc["epsilon"] == 1e-8
    assert abs(doc["lambda"] - math.log(2.0)) <= 1e-6  # the 2-clique's rate, smoothed


def test_variational_takes_fib_and_refuses_a_split_graph_as_solve_does(capsys, tmp_path):
    # the golden-ratio shift has zero weights and needs no smoothing; a graph
    # that solve refuses without a fallback is refused with solve's error
    path = _write_fib(capsys, tmp_path)
    code, doc = _invoke_json(capsys, "variational", path)
    assert code == 0
    assert abs(doc["value"] - math.log((1 + math.sqrt(5)) / 2)) <= 1e-6 and doc["gap"] <= 1e-6
    split = str(tmp_path / "split.json")
    assert _invoke_json(capsys, "gen", "graph", "--adjacency", "110;110;001",
                        "--out", split)[0] == 0
    code, solve_doc = _invoke_json(capsys, "solve", split)
    assert code == 2 and solve_doc["error"]["type"] == "ReducibleGain"
    code, doc = _invoke_json(capsys, "variational", split)
    assert code == 2 and doc == solve_doc


def test_solve_then_mc_smoke_agreement(capsys, tmp_path):
    model = mild_model(6)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    code, sdoc = _invoke_json(capsys, "solve", path)
    assert code == 0
    ppath = tmp_path / "policy.json"
    ppath.write_text(json.dumps({"phi": sdoc["policy"]["phi"]}))
    code, mdoc = _invoke_json(capsys, "mc", path, "--policy", str(ppath),
                              "--n", "200", "--paths", "4000", "--seed", "3")
    assert code == 0
    assert abs(mdoc["point"] - sdoc["lambda"]) <= 3 * mdoc["stderr"]
