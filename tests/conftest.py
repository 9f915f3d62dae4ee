"""Shared model builders and closed-form oracles for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from growthcert import MdpModel, gen_exit_model, gen_graph_model

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# Adjacency of the two-letter shift with "11" forbidden from state 1: the
# number of admissible words grows like the golden ratio.
FIB_ADJACENCY = np.array([[1, 1], [1, 0]])


def random_positive_model(seed: int, s: int | None = None, a: int | None = None) -> MdpModel:
    """Random model with strictly positive kernel and weights.

    Sizes default to 2..6 states and 1..4 actions drawn from the seed, so a
    plain ``range(k)`` loop sweeps a varied family.
    """
    rng = np.random.default_rng(seed)
    if s is None:
        s = int(rng.integers(2, 7))
    if a is None:
        a = int(rng.integers(1, 5))
    kernel = rng.gamma(1.0, size=(s, a, s)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    weights = np.exp(rng.uniform(-1.0, 1.0, size=(s, a, s)))
    return MdpModel(
        states=[f"s{i}" for i in range(s)],
        actions=[f"a{u}" for u in range(a)],
        kernel=kernel,
        weights=weights,
    )


def mild_model(seed: int) -> MdpModel:
    """Positive model with low reward dispersion.

    Keeps the tails of the multiplicative reward light enough that
    moderate-sample Monte Carlo error bars are trustworthy.
    """
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 7))
    a = int(rng.integers(1, 5))
    kernel = rng.gamma(1.0, size=(s, a, s)) + 0.2
    kernel /= kernel.sum(axis=2, keepdims=True)
    weights = np.exp(rng.uniform(-0.15, 0.15, size=(s, a, s)))
    return MdpModel(
        states=[f"s{i}" for i in range(s)],
        actions=[f"a{u}" for u in range(a)],
        kernel=kernel,
        weights=weights,
    )


FUZZ_FAMILIES = ("scaled", "near-decomposable", "periodic", "zero-row", "wide")

# ``pytest --hypothesis-profile fuzz-nightly`` runs the fuzz contract of
# tests/test_cli.py on new random seeds; without it the contract draws the
# same derandomized seeds in every run.  No other property reads the profile.
FUZZ_NIGHTLY = "fuzz-nightly"
settings.register_profile(FUZZ_NIGHTLY, max_examples=500, derandomize=False)


def fuzz_model(seed: int, family: str) -> MdpModel:
    """A draw of one of the ``FUZZ_FAMILIES``: 2..6 states, 1..3 actions.

    The base draw has kernel gamma(1) + 0.01, row-normalized, and weights
    ``exp U(-1, 1)``.  ``"wide"`` draws weights ``exp U(-600, 600)``;
    ``"near-decomposable"`` scales the kernel mass between the states below
    ``s // 2`` and the rest by 1e-13; ``"scaled"`` multiplies all weights by
    one of 1e-300, 1e-200, 1e200 and 1e300; ``"periodic"`` keeps only the
    kernel entries from each state to the next one mod ``s``, a cycle;
    ``"zero-row"`` zeroes the weights of one state-action pair.
    """
    if family not in FUZZ_FAMILIES:
        raise ValueError(f"unknown fuzz family {family!r}")
    rng = np.random.default_rng(seed)
    s, a = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    kernel = rng.gamma(1.0, size=(s, a, s)) + 0.01
    if family == "near-decomposable":
        block = np.arange(s) < s // 2
        kernel *= np.where(block[:, None, None] == block[None, None, :], 1.0, 1e-13)
    if family == "periodic":
        kernel *= np.roll(np.eye(s), 1, axis=1)[:, None, :]
    kernel /= kernel.sum(axis=2, keepdims=True)
    spread = 600.0 if family == "wide" else 1.0
    weights = np.exp(rng.uniform(-spread, spread, size=(s, a, s)))
    if family == "scaled":
        weights *= rng.choice([1e-300, 1e-200, 1e200, 1e300])
    if family == "zero-row":
        weights[rng.integers(s), rng.integers(a)] = 0.0
    return MdpModel(
        states=[f"s{i}" for i in range(s)],
        actions=[f"a{u}" for u in range(a)],
        kernel=kernel,
        weights=weights,
    )


def fib_model() -> MdpModel:
    return gen_graph_model([FIB_ADJACENCY])


def two_graph_model() -> MdpModel:
    """Two nested action graphs on two vertices (edge set 1 inside edge set 2)."""
    g1 = np.array([[0, 1], [1, 0]])
    g2 = np.array([[1, 1], [1, 1]])
    return gen_graph_model([g1, g2])


def random_walk_exit_model() -> MdpModel:
    """Symmetric +/-1 walk on {0..4} restricted to staying inside {1,2,3}."""
    P = np.zeros((5, 5))
    P[0, 0] = P[4, 4] = 1.0
    for i in (1, 2, 3):
        P[i, i - 1] = P[i, i + 1] = 0.5
    return gen_exit_model([P], S0=[0, 4])


def path_count_growth(adjacency: np.ndarray, n: int = 40) -> float:
    """Growth factor of directed path counts, by exact integer counting.

    Returns ``N_n(0) / N_{n-1}(0)`` where ``N_k(x)`` counts length-``k``
    paths out of ``x``; an independent cross-check for spectral answers.
    """
    adj = [[int(v) for v in row] for row in np.asarray(adjacency)]
    counts = [1] * len(adj)
    prev = counts
    for _ in range(n):
        prev, counts = counts, [sum(a * c for a, c in zip(row, counts)) for row in adj]
    return counts[0] / prev[0]


def count_paths(adjacency: np.ndarray, start: int, length: int) -> int:
    """Number of directed paths of the given length, by depth-first search."""
    adj = np.asarray(adjacency)
    if length == 0:
        return 1
    return sum(
        count_paths(adj, y, length - 1)
        for y in range(adj.shape[1])
        if adj[start, y]
    )


def binary_entropy_rate(t: np.ndarray) -> np.ndarray:
    """Entropy rate of the two-state chain that leaves state 0 w.p. ``t``.

    State 1 always returns to state 0, so only state 0 contributes entropy
    and the stationary weight of state 0 is 1/(1+t).
    """
    t = np.asarray(t, dtype=float)
    h = -t * np.log(t) - (1.0 - t) * np.log(1.0 - t)
    return h / (1.0 + t)
