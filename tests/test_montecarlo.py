"""Path simulation and multiplicative growth-rate estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import FIB_ADJACENCY, fib_model, mild_model
from growthcert import (
    MdpModel,
    Policy,
    estimate_growth,
    montecarlo,
    sample_log_products,
    simulate,
    solve_eigen,
)


def _survival_chain() -> MdpModel:
    """Dies (zero weight) w.p. 0.9 on the first step, else parks at weight 1."""
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0] = [0.9, 0.1]
    kernel[1, 0] = [0.0, 1.0]
    weights = np.zeros((2, 1, 2))
    weights[0, 0, 1] = 1.0
    weights[1, 0, 1] = 1.0
    return MdpModel(states=["a", "b"], actions=["u"], kernel=kernel, weights=weights)


def _cycle_model(c: float, s: int = 3) -> MdpModel:
    kernel = np.zeros((s, 1, s))
    for x in range(s):
        kernel[x, 0, (x + 1) % s] = 1.0
    return MdpModel(
        states=[f"s{i}" for i in range(s)],
        actions=["a0"],
        kernel=kernel,
        weights=np.full((s, 1, s), math.exp(c)),
    )


def _fib_exact_horizon_rate(n: int) -> float:
    """log of the exact admissible-path count out of state 0, over n."""
    c0, c1 = 1, 1
    for _ in range(n):
        c0, c1 = c0 + c1, c0
    return math.log(c0) / n


def _trivial(model: MdpModel) -> Policy:
    return Policy.deterministic([0] * model.n_states, n_actions=1)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_stays_on_graph_edges():
    model = fib_model()
    states, actions, log_product = simulate(model, _trivial(model), n=200, x0=0, seed=1)
    assert states.shape == (201,) and actions.shape == (200,)
    assert np.all(actions == 0)
    for x, y in zip(states[:-1], states[1:]):
        assert FIB_ADJACENCY[x, y] == 1
    # reward factors on edges equal the out-degree of the source state
    expected = sum(math.log(model.weights[x, 0, y])
                   for x, y in zip(states[:-1], states[1:]))
    assert abs(log_product - expected) <= 1e-12


def test_simulate_constant_chain_is_exact():
    c = 0.37
    states, _, log_product = simulate(_cycle_model(c), _trivial(_cycle_model(c)), n=10, x0=0, seed=0)
    assert_array_equal(states, [i % 3 for i in range(11)])
    assert abs(log_product - 10 * c) <= 1e-13


def test_simulate_zero_weight_marks_minus_infinity():
    _, _, log_product = simulate(_survival_chain(), _trivial(_survival_chain()), n=1, x0=0, seed=3)
    assert log_product == -math.inf


def test_simulate_is_deterministic_in_seed():
    model = mild_model(0)
    policy = Policy.uniform(model.n_states, model.n_actions)
    a = simulate(model, policy, n=50, x0=1, seed=9)
    b = simulate(model, policy, n=50, x0=1, seed=9)
    assert_array_equal(a[0], b[0])
    assert_array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_simulate_validates_arguments():
    model = _cycle_model(0.0)
    with pytest.raises(ValueError, match="n must"):
        simulate(model, _trivial(model), n=0)
    with pytest.raises(ValueError, match="x0"):
        simulate(model, _trivial(model), n=1, x0=7)
    with pytest.raises(ValueError, match="policy shape"):
        simulate(model, Policy.uniform(2, 3), n=1)
    for seed in (-1, 2 ** 64, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="seed"):
            simulate(model, _trivial(model), n=1, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        estimate_growth(model, _trivial(model), n=1, paths=4, batches=2, seed=1.5)
    assert simulate(model, _trivial(model), n=3, seed=np.uint64(1))[2] == \
        simulate(model, _trivial(model), n=3, seed=1)[2]


# ---------------------------------------------------------------------------
# sample_log_products / estimate_growth
# ---------------------------------------------------------------------------

def test_sample_log_products_bitwise_reproducible():
    model = mild_model(1)
    policy = Policy.uniform(model.n_states, model.n_actions)
    a = sample_log_products(model, policy, n=30, paths=500, seed=5)
    b = sample_log_products(model, policy, n=30, paths=500, seed=5)
    assert_array_equal(a, b)
    # paths are keyed individually, so a prefix of a larger run matches
    c = sample_log_products(model, policy, n=30, paths=100, seed=5)
    assert_array_equal(a[:100], c)


def _reference_uniforms(seed: int, first_path: int, count: int, n: int) -> np.ndarray:
    """One freshly built Generator per path: the stream contract, spelled out."""
    return np.stack([
        np.random.Generator(np.random.Philox(
            key=np.array([seed, first_path + j], dtype=np.uint64))).random((n, 2))
        for j in range(count)
    ])


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("n", [1, 6, 200])
def test_streams_match_per_path_generators_bit_for_bit(monkeypatch, n, seed):
    model = mild_model(5)
    policy = Policy.uniform(model.n_states, model.n_actions)
    paths = 37
    got = montecarlo._path_uniforms(seed, 1_000_003, paths, n)
    want = _reference_uniforms(seed, 1_000_003, paths, n)
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    reference, _, _ = montecarlo._evolve(model, policy, 0,
                                         _reference_uniforms(seed, 0, paths, n))
    one_block = sample_log_products(model, policy, n=n, paths=paths, seed=seed)
    # five paths per block (the last one partial), converted seven words at a time
    monkeypatch.setattr(montecarlo, "_BLOCK_UNIFORMS", 5 * 2 * n)
    monkeypatch.setattr(montecarlo, "_CONVERT", 7)
    many_blocks = sample_log_products(model, policy, n=n, paths=paths, seed=seed)
    assert_array_equal(one_block.view(np.uint64), reference.view(np.uint64))
    assert_array_equal(many_blocks.view(np.uint64), reference.view(np.uint64))


def test_estimate_constant_chain_recovers_rate_exactly():
    c = -0.25
    model = _cycle_model(c)
    est = estimate_growth(model, _trivial(model), n=40, paths=100, batches=4)
    assert abs(est.point - c) <= 1e-14
    assert est.stderr == 0.0
    assert est.n == 40 and est.paths == 100 and est.batches == 4


def test_estimate_fibonacci_matches_exact_horizon_value():
    n = 60
    model = fib_model()
    est = estimate_growth(model, _trivial(model), n=n, paths=20_000, batches=20, seed=0)
    # the finite-horizon target is the exact path-count rate, which still
    # sits a few thousandths above the asymptotic golden-ratio rate
    exact = _fib_exact_horizon_rate(n)
    assert abs(est.point - exact) <= 3 * est.stderr
    assert abs(est.point - math.log((1 + math.sqrt(5)) / 2)) <= 5e-3


def test_estimate_agrees_with_solver_on_mild_model():
    model = mild_model(208)
    sol = solve_eigen(model)
    est = estimate_growth(model, sol.v_star, n=200, paths=10_000, batches=20, seed=208)
    assert abs(est.point - sol.log_rho) <= 3 * est.stderr


def test_sample_mean_matches_tensor_contraction():
    model = mild_model(3)
    policy = Policy.uniform(model.n_states, model.n_actions)
    n, paths = 6, 1_000_000
    logs = sample_log_products(model, policy, n=n, paths=paths, seed=17)
    products = np.exp(logs)
    m_phi = np.einsum("xu,xuy->xy", policy.phi, model.gain)
    exact = float(np.linalg.matrix_power(m_phi, n)[0] @ np.ones(model.n_states))
    stderr = products.std(ddof=1) / math.sqrt(paths)
    assert abs(products.mean() - exact) <= 4 * stderr


def test_mean_of_logs_sits_below_log_of_mean():
    model = mild_model(4)
    policy = Policy.uniform(model.n_states, model.n_actions)
    n = 50
    logs = sample_log_products(model, policy, n=n, paths=4000, seed=2)
    est = estimate_growth(model, policy, n=n, paths=4000, batches=20, seed=2)
    assert logs.mean() / n <= est.point + 3 * est.stderr


def test_estimate_all_paths_dead_flag():
    model = _survival_chain()
    est = estimate_growth(model, _trivial(model), n=1, paths=8, batches=2, seed=0)
    assert est.point == -math.inf
    assert est.all_paths_dead
    assert est.stderr == 0.0


def test_estimate_dead_batch_gives_vacuous_stderr():
    model = _survival_chain()
    est = estimate_growth(model, _trivial(model), n=1, paths=8, batches=2, seed=2)
    assert math.isfinite(est.point)
    assert not est.all_paths_dead
    assert est.stderr == math.inf


def test_estimate_validates_batching():
    model = _cycle_model(0.0)
    with pytest.raises(ValueError, match="batches"):
        estimate_growth(model, _trivial(model), n=5, paths=10, batches=1)
    with pytest.raises(ValueError, match="divisible"):
        estimate_growth(model, _trivial(model), n=5, paths=10, batches=3)
