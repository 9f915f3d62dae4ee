"""Inputs of the two benchmark workloads, made from the benchmark seed.

Each workload is a *pass*: a fixed list of CLI calls.  ``build`` writes the
files a pass reads (with stdlib ``json``, so inputs do not depend on the
package's own writer) and returns one ``Call`` per CLI invocation, carrying
what the oracle needs to judge its output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("bulk", "iterate")

# The variational models do not depend on the seed: some of them exhaust the
# maximizer's iteration budget, and a failing operation must fail in every run.
VARIATIONAL_BASE = 20151
VARIATIONAL_TOL = 1e-6  # the CLI's default --tol

FULL = {
    "dense_models": 2, "dense_states": 200, "dense_actions": 8,
    "cycle_copies": 3, "cycle_length": 200,
    "mc_states": 20, "mc_actions": 3,
    "short_n": 6, "short_paths": 64_000, "long_n": 200, "long_paths": 16_000,
    "variational_models": 4,
}

TINY = {
    "dense_models": 2, "dense_states": 12, "dense_actions": 3,
    "cycle_copies": 2, "cycle_length": 12,
    "mc_states": 5, "mc_actions": 2,
    "short_n": 6, "short_paths": 2_000, "long_n": 40, "long_paths": 1_000,
    "variational_models": 2,
}


@dataclass
class Call:
    """One CLI invocation and the reference data its output is judged by."""

    argv: list[str]
    kind: str
    model: str
    extra: dict = field(default_factory=dict)


def write_json(path: Path, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # one C-encoder call; json.dump would encode in Python
    return str(path)


def write_model(path: Path, kernel: np.ndarray, weights: np.ndarray, metadata: str) -> str:
    s, a, _ = kernel.shape
    return write_json(path, {
        "states": [f"x{i}" for i in range(s)],
        "actions": [f"u{i}" for i in range(a)],
        "kernel": kernel.tolist(),
        "weights": weights.tolist(),
        "metadata": metadata,
    })


def random_positive(rng: np.random.Generator, s: int, a: int, spread: float):
    """Strictly positive kernel and weights ``exp(U(-spread, spread))``."""
    kernel = rng.uniform(0.05, 1.0, (s, a, s))
    kernel /= kernel.sum(axis=2, keepdims=True)
    return kernel, np.exp(rng.uniform(-spread, spread, (s, a, s)))


def cycle_with_self_loop(rng: np.random.Generator, length: int):
    """Graph-family tensors of the L-cycle plus one self-loop, vertices relabelled at random.

    Same construction as the package's graph family: uniform out-neighbour
    walk, reward factor equal to the out-degree, so the gain is the adjacency.
    """
    adj = np.zeros((length, length))
    adj[np.arange(length), (np.arange(length) + 1) % length] = 1.0
    adj[0, 0] = 1.0
    perm = rng.permutation(length)
    adj = adj[np.ix_(perm, perm)]
    deg = adj.sum(axis=1, keepdims=True)
    return (adj / deg)[:, None, :], (adj * deg)[:, None, :]


def _solve_dense(seed, sizes, workdir):
    rng = np.random.default_rng([seed, 0])
    calls = []
    for i in range(sizes["dense_models"]):
        kernel, weights = random_positive(rng, sizes["dense_states"], sizes["dense_actions"], 1.0)
        path = write_model(workdir / f"dense{i}.json", kernel, weights, f"dense seed {seed}")
        calls.append(Call(["solve", path], "solve", path))
    return calls


def _solve_slowmix(seed, sizes, workdir):
    rng = np.random.default_rng([seed, 1])
    length = sizes["cycle_length"]
    closed = oracles.cycle_log_rho(length)
    calls = []
    for i in range(sizes["cycle_copies"]):
        kernel, weights = cycle_with_self_loop(rng, length)
        path = write_model(workdir / f"cycle{i}.json", kernel, weights,
                           f"{length}-cycle with one self-loop, seed {seed}")
        calls.append(Call(["solve", path], "solve", path, {"closed_form": closed}))
    return calls


def _mc(seed, sizes, workdir, n, paths):
    rng = np.random.default_rng([seed, 2])
    kernel, weights = random_positive(rng, sizes["mc_states"], sizes["mc_actions"], 0.1)
    path = write_model(workdir / "mild.json", kernel, weights, f"mild seed {seed}")
    _, choices = oracles.optimal_growth(kernel * weights)
    phi = np.eye(sizes["mc_actions"])[choices]
    policy = write_json(workdir / "policy.json", {"phi": phi.tolist()})
    argv = ["mc", path, "--policy", policy, "--n", str(n), "--paths", str(paths),
            "--seed", str(seed)]
    return [Call(argv, "mc", path, {"phi": phi, "n": n, "paths": paths, "x0": 0})]


def _variational(seed, sizes, workdir):
    calls = []
    for i in range(sizes["variational_models"]):
        rng = np.random.default_rng([VARIATIONAL_BASE, i])
        s, a = int(rng.integers(6, 13)), int(rng.integers(2, 4))
        kernel, weights = random_positive(rng, s, a, 1.0)
        path = write_model(workdir / f"var{i}.json", kernel, weights, f"variational model {i}")
        log_rho, _ = oracles.optimal_growth(kernel * weights)
        calls.append(Call(["variational", path], "variational", path,
                          {"log_rho": log_rho, "tol": VARIATIONAL_TOL}))
    return calls


def build(workload: str, seed: int, workdir: Path, sizes: dict = FULL) -> list[Call]:
    """Write the inputs of one pass of ``workload`` into ``workdir``.

    ``bulk`` gathers the calls whose time goes to building many items once:
    parsing and emitting the dense models' floats, and one random stream per
    path of Monte Carlo at the short horizon.  ``iterate`` gathers those whose
    time goes to long loops over small inputs: the slowly mixing cycles (damped
    power steps), the variational models (mirror ascent) and Monte Carlo at
    the long horizon (path evolution).
    """
    if workload == "bulk":
        return (_solve_dense(seed, sizes, workdir)
                + _mc(seed, sizes, workdir, sizes["short_n"], sizes["short_paths"]))
    if workload == "iterate":
        return (_solve_slowmix(seed, sizes, workdir) + _variational(seed, sizes, workdir)
                + _mc(seed, sizes, workdir, sizes["long_n"], sizes["long_paths"]))
    raise ValueError(f"unknown workload {workload!r}")


def check(call: Call, stdout: str) -> list[str]:
    """Oracle verdict on one successful call (exit code 0)."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    gain = oracles.load_gain(call.model)
    if call.kind == "solve":
        return oracles.check_solve(gain, doc, call.extra.get("closed_form"))
    if call.kind == "mc":
        x = call.extra
        return oracles.check_mc(gain, x["phi"], doc, x["n"], x["paths"], x["x0"])
    return oracles.check_variational(gain, doc, call.extra["log_rho"], call.extra["tol"])
