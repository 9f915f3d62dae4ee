"""Golden CLI corpus: stdout of every command on a fixed set of model files.

Each case runs the CLI in a scratch directory with relative file names, so
the paths echoed in the output are stable.  The expected stdout, with the
``timings_ms`` object removed, lives in ``tests/golden/<case>.out``; the
comparison is byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_positive_model
from growthcert import Policy, save_model
from growthcert.cli import run
from test_cli import STRIP_TIMINGS

GOLDEN_DIR = Path(__file__).parent / "golden"

WALK_5 = "1,0,0,0,0;0.5,0,0.5,0,0;0,0.5,0,0.5,0;0,0,0.5,0,0.5;0,0,0,0,1"

# (case name, argv, expected exit code)
CASES = [
    ("validate_fib", ["validate", "fib.json"], 0),
    ("validate_ring", ["validate", "ring.json"], 0),
    ("validate_exit", ["validate", "exit.json"], 0),
    ("validate_random5", ["validate", "random5.json"], 0),
    ("solve_random5", ["solve", "random5.json"], 0),
    ("solve_exit", ["solve", "exit.json"], 0),
    ("solve_ring", ["solve", "ring.json"], 0),
    ("solve_fib_fallback", ["solve", "fib.json", "--eps-fallback", "1e-8"], 0),
    ("solve_ring_fallback", ["solve", "ring.json", "--eps-fallback", "1e-6"], 0),
    ("solve_split_fallback", ["solve", "split.json", "--eps-fallback", "1e-6"], 0),
    ("bounds_fib", ["bounds", "fib.json", "--f", "f.json"], 0),
    ("bounds_random5", ["bounds", "random5.json", "--f", "f5.json"], 0),
    ("mc_random5", ["mc", "random5.json", "--policy", "uniform5.json",
                    "--n", "20", "--paths", "300", "--seed", "3"], 0),
    ("mc_fib", ["mc", "fib.json", "--policy", "fib_policy.json",
                "--n", "12", "--paths", "200", "--batches", "10"], 0),
    ("mc_exit", ["mc", "exit.json", "--policy", "exit_policy.json",
                 "--n", "30", "--paths", "200", "--x0", "1", "--seed", "7"], 0),
    ("eps_sweep_fib", ["eps-sweep", "fib.json", "--grid", "1e-2,1e-4,1e-6",
                       "--out", "sweep.csv"], 0),
    ("eps_sweep_ring", ["eps-sweep", "ring.json", "--grid", "0.5,0.05",
                        "--out", "sweep.csv"], 0),
    ("variational_random5", ["variational", "random5.json"], 0),
    ("fault_malformed_json", ["validate", "garbage.json"], 2),
    ("fault_not_stochastic", ["validate", "nonstochastic.json"], 2),
    ("fault_reducible_solve", ["solve", "split.json"], 2),
    ("fault_negative_entry", ["validate", "negative.json"], 2),
    ("fault_missing_model", ["solve", "absent.json"], 2),
]


def _write_corpus(directory: Path) -> None:
    """Model, policy and vector files the cases refer to, by relative name."""
    for adjacency, name in (("11;10", "fib.json"), ("110;101;010", "ring.json"),
                            ("110;110;001", "split.json")):
        assert run(["gen", "graph", "--adjacency", adjacency, "--out", name]) == 0
    assert run(["gen", "exit", "--p", WALK_5, "--s0", "0,4", "--out", "exit.json"]) == 0
    model5 = random_positive_model(5)
    save_model(model5, "random5.json")
    files = {
        "f.json": [1.0, 0.6],
        "f5.json": list(np.linspace(1.0, 2.0, model5.n_states)),
        "uniform5.json": {"phi": Policy.uniform(model5.n_states,
                                                model5.n_actions).phi.tolist()},
        "fib_policy.json": {"phi": [[1.0], [1.0]]},
        "exit_policy.json": {"phi": [[1.0], [1.0], [1.0]]},
        "nonstochastic.json": {"states": ["a", "b"], "actions": ["u"],
                               "kernel": [[[0.5, 0.4]], [[0.5, 0.5]]],
                               "weights": [[[1.0, 1.0]], [[1.0, 1.0]]]},
        "negative.json": {"states": ["a", "b"], "actions": ["u"],
                          "kernel": [[[1.5, -0.5]], [[0.5, 0.5]]],
                          "weights": [[[1.0, 1.0]], [[1.0, 1.0]]]},
    }
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc))
    (directory / "garbage.json").write_text("{not json")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        _write_corpus(directory)
    return directory


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code, corpus, capsys, monkeypatch):
    monkeypatch.chdir(corpus)
    assert run(list(argv)) == code
    out = STRIP_TIMINGS.sub("", capsys.readouterr().out)
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
