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

    reference, _, _ = _reference_evolve(model, policy, 0, _reference_uniforms(seed, 0, paths, n))
    one_block = sample_log_products(model, policy, n=n, paths=paths, seed=seed)
    # five paths per block (the last one partial)
    monkeypatch.setattr(montecarlo, "_BLOCK_UNIFORMS", 5 * 2 * n)
    many_blocks = sample_log_products(model, policy, n=n, paths=paths, seed=seed)
    assert_array_equal(one_block.view(np.uint64), reference.view(np.uint64))
    assert_array_equal(many_blocks.view(np.uint64), reference.view(np.uint64))


def _reference_evolve(model: MdpModel, policy: Policy, x0: int, uniforms: np.ndarray):
    """Path evolution with a dead mask and a log of the gathered weights per step."""
    b, n, _ = uniforms.shape
    s, a = model.n_states, model.n_actions
    cum_phi = np.cumsum(policy.phi, axis=1)
    cum_ker = np.cumsum(model.kernel, axis=2)
    xs = np.full(b, x0, dtype=int)
    logs = np.zeros(b)
    dead = np.zeros(b, dtype=bool)
    states = np.empty((b, n + 1), dtype=int)
    actions = np.empty((b, n), dtype=int)
    states[:, 0] = xs
    for m in range(n):
        us = np.minimum((cum_phi[xs] <= uniforms[:, m, 0][:, None]).sum(axis=1), a - 1)
        ys = np.minimum((cum_ker[xs, us] <= uniforms[:, m, 1][:, None]).sum(axis=1), s - 1)
        w = model.weights[xs, us, ys]
        dead |= w == 0
        logs += np.log(np.where(w > 0, w, 1.0))
        actions[:, m] = us
        states[:, m + 1] = ys
        xs = ys
    logs[dead] = -np.inf
    return logs, states, actions


@pytest.mark.parametrize("paths_per_block", [1, 7, None])
@pytest.mark.parametrize("kind", ["deterministic", "randomized"])
def test_evolution_matches_reference_on_dying_paths(monkeypatch, kind, paths_per_block):
    rng = np.random.default_rng(11)
    base = mild_model(6)
    weights = np.where(rng.random(base.weights.shape) < 0.1, 0.0, base.weights)
    model = MdpModel(states=base.states, actions=base.actions, kernel=base.kernel,
                     weights=weights)
    s, a = model.n_states, model.n_actions
    policy = (Policy.deterministic(rng.integers(a, size=s), a) if kind == "deterministic"
              else Policy.uniform(s, a))
    assert policy.kind == kind
    n, paths, seed = 12, 60, 4
    want, states, actions = _reference_evolve(model, policy, 1,
                                              _reference_uniforms(seed, 0, paths, n))
    assert 0 < np.isinf(want).sum() < paths
    if paths_per_block:
        monkeypatch.setattr(montecarlo, "_BLOCK_UNIFORMS", paths_per_block * 2 * n)
    got = sample_log_products(model, policy, n=n, paths=paths, x0=1, seed=seed)
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    path_states, path_actions, log_product = simulate(model, policy, n=n, x0=1, seed=seed)
    assert_array_equal(path_states, states[0])
    assert_array_equal(path_actions, actions[0])
    assert np.float64(log_product).view(np.uint64) == want[:1].view(np.uint64)[0]


@pytest.mark.parametrize("buckets_per_entry", [0, 1, None])
def test_guide_table_draws_the_clamped_inverse_cdf_count(monkeypatch, buckets_per_entry):
    # rows that stop short of 1 too: a draw above the last entry clamps to the last column
    if buckets_per_entry is not None:
        monkeypatch.setattr(montecarlo, "_BUCKETS_PER_ENTRY", buckets_per_entry)
    probs = np.array([[0.25, 0.25, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5], [0.1, 0.2, 0.3, 0.4],
                      [0.0, 0.0, 0.0, 0.3], [0.125, 0.0, 0.625, 0.25]])
    table = montecarlo._GuideTable(probs)
    cum = np.cumsum(probs, axis=1)
    edges = np.arange(table.buckets) / table.buckets
    points = np.concatenate([cum.ravel(), edges, np.nextafter(cum.ravel(), 0.0),
                             np.nextafter(edges, 0.0), np.random.default_rng(3).random(50)])
    points = points[(points >= 0.0) & (points < 1.0)]
    rows = np.repeat(np.arange(len(probs)), len(points))
    u = np.tile(points, len(probs))
    want = np.minimum((cum[rows] <= u[:, None]).sum(axis=1), probs.shape[1] - 1)
    assert_array_equal(table.draw(rows, u), want)


def _assert_draws_match_the_inverse_cdf(table, probs: np.ndarray, points: np.ndarray):
    points = points[(points >= 0.0) & (points < 1.0)]
    cum = np.cumsum(probs, axis=1)
    rows = np.repeat(np.arange(len(probs)), len(points))
    u = np.tile(points, len(probs))
    want = np.minimum((cum[rows] <= u[:, None]).sum(axis=1), probs.shape[1] - 1)
    assert_array_equal(table.draw(rows, u), want)


def test_one_hot_and_dyadic_rows_build_no_split_bucket():
    # every CDF entry of these rows lies on a bucket edge (K = 32 for width 4)
    probs = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [0.125, 0.375, 0.25, 0.25], [0.5, 0.0, 0.5, 0.0], [0.0, 0.75, 0.0, 0.0]])
    table = montecarlo._GuideTable(probs)
    assert table.buckets == 32 and not table.split and not table.crowded
    assert (table.guide >= 0).all()
    cum = np.cumsum(probs, axis=1).ravel()
    edges = np.arange(table.buckets) / table.buckets
    _assert_draws_match_the_inverse_cdf(table, probs, np.concatenate(
        [cum, np.nextafter(cum, 0.0), edges, np.nextafter(edges, 0.0),
         np.random.default_rng(4).random(200)]))
    # a deterministic policy's action table splits nothing either
    model = mild_model(2)
    policy = Policy.deterministic(np.arange(model.n_states) % model.n_actions, model.n_actions)
    assert not montecarlo._tables(model, policy)[0].split


def test_entry_on_an_interior_edge_draws_at_the_edge_and_one_ulp_below():
    # cum = 0.25 (edge 8 of 32), 0.35 (inside bucket 11), 1.0
    probs = np.array([[0.25, 0.1, 0.65]])
    table = montecarlo._GuideTable(probs)
    assert table.buckets == 32
    assert table.guide[7] == 0 and table.guide[8] == 1  # no split on either side of the edge
    assert table.guide[11] == ~1 and table.split and not table.crowded
    edge = 0.25
    assert_array_equal(table.draw(np.zeros(2, dtype=np.intp),
                                  np.array([edge, np.nextafter(edge, 0.0)])), [1, 0])
    _assert_draws_match_the_inverse_cdf(table, probs, np.concatenate(
        [[edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 0.35,
          np.nextafter(0.35, 0.0), 11 / 32, np.nextafter(12 / 32, 0.0)],
         np.random.default_rng(6).random(200)]))


def test_bucket_with_one_inner_entry_stores_its_left_count_and_a_crowded_one_a_marker():
    # width 4, K = 32: 0.3 and 0.301 share bucket 9; 0.7 alone splits bucket 22
    probs = np.array([[0.3, 0.001, 0.399, 0.3], [0.7, 0.2, 0.05, 0.05]])
    table = montecarlo._GuideTable(probs)
    assert table.buckets == 32 and table.split and table.crowded
    assert table.guide[9] == ~3  # two entries inside: search the row
    assert table.guide[22] == ~2  # one entry inside, two below its left edge
    assert table.guide[32 + 22] == ~0  # 0.7 on the second row, none below
    assert table.guide[32 + 28] == ~1  # 0.9 on the second row
    cum = np.cumsum(probs, axis=1).ravel()
    inside = (np.array([9, 22, 28, 30]) + np.random.default_rng(7).random((50, 1))) / 32
    _assert_draws_match_the_inverse_cdf(table, probs, np.concatenate(
        [cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), inside.ravel()]))


def _assert_evolution_matches_reference(model: MdpModel, policy: Policy, x0: int,
                                        uniforms: np.ndarray):
    want = _reference_evolve(model, policy, x0, uniforms)
    tables = montecarlo._tables(model, policy)
    logs, _, _ = montecarlo._evolve(tables, x0, uniforms)
    got = montecarlo._evolve(tables, x0, uniforms, record=True)
    assert_array_equal(logs.view(np.uint64), want[0].view(np.uint64))
    assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    assert_array_equal(got[1], want[1])
    assert_array_equal(got[2], want[2])


def _edge_case_model() -> tuple[MdpModel, Policy]:
    """Dyadic CDF entries, zero-mass entries, zero-probability actions, short rows."""
    kernel = np.array([
        [[0.25, 0.25, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4, 0.0]],
        [[0.2, 0.2, 0.2, 0.2, 0.2 - 1e-13], [0.0, 0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5 - 4e-13, 0.0], [0.125, 0.375, 0.5, 0.0, 0.0]],
        [[0.1, 0.1, 0.1, 0.1, 0.6], [0.3, 0.3, 0.1, 0.1, 0.2], [0.0, 0.25, 0.25, 0.25, 0.25]],
        [[0.5, 0.5, 0.0, 0.0, 0.0], [0.2, 0.0, 0.3, 0.0, 0.5], [0.0, 0.0, 0.5, 0.0, 0.5]],
    ])
    weights = np.exp(np.random.default_rng(2).uniform(-1.0, 1.0, kernel.shape))
    weights[kernel == 0] = 0.0  # a path can only die on a zero-mass entry ...
    weights[3, 1, 4] = 0.0  # ... or here
    model = MdpModel(states=[f"s{i}" for i in range(5)], actions=["u0", "u1", "u2"],
                     kernel=kernel, weights=weights)
    phi = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3],
           [0.0, 0.75, 0.25]]
    return model, Policy(np.array(phi))


@pytest.mark.parametrize("buckets_per_entry", [0, None])
def test_evolution_matches_reference_on_bucket_edges_and_cdf_entries(monkeypatch,
                                                                      buckets_per_entry):
    # 0 buckets per entry leaves two buckets per row, fewer than the five entries
    if buckets_per_entry is not None:
        monkeypatch.setattr(montecarlo, "_BUCKETS_PER_ENTRY", buckets_per_entry)
    model, policy = _edge_case_model()
    tables = montecarlo._tables(model, policy)
    assert tables[1].buckets < model.n_states if buckets_per_entry == 0 else \
        tables[1].buckets > model.n_states
    kernel_cdf = np.cumsum(model.kernel, axis=2)
    assert kernel_cdf[1, 0, -1] < 1.0 - 2 ** -53  # a drawn u can lie above it
    cdf = np.concatenate([np.cumsum(policy.phi, axis=1).ravel(), kernel_cdf.ravel()])
    edges = np.concatenate([np.arange(t.buckets) / t.buckets for t in tables[:2]])
    points = np.concatenate([cdf, edges, np.nextafter(cdf, 0.0), np.nextafter(edges, 0.0),
                             np.nextafter(cdf, 1.0), [1.0 - 2 ** -53]])
    points = np.unique(points[(points >= 0.0) & (points < 1.0)])
    rng = np.random.default_rng(5)
    uniforms = rng.choice(points, size=(4000, 9, 2))
    uniforms[::2, :, 1] = rng.random((2000, 9))  # mixed with draws off every edge
    for x0 in range(model.n_states):
        _assert_evolution_matches_reference(model, policy, x0, uniforms)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_evolution_matches_reference_across_a_chunk_boundary(n):
    # the uniforms are read _CHUNK_STEPS (8) steps at a time
    assert montecarlo._CHUNK_STEPS == 8
    model, policy = _edge_case_model()
    uniforms = np.random.default_rng(n).random((500, n, 2))
    for x0 in (0, 3):
        _assert_evolution_matches_reference(model, policy, x0, uniforms)


@pytest.mark.parametrize("big_first", [False, True])
def test_evolution_matches_reference_on_a_crowded_bucket(big_first):
    # 199 entries of mass 1e-7 share one bucket; most draws land in it
    s = 200
    row = np.full(s, 1e-7)
    row[0 if big_first else -1] = 1.0 - 1e-7 * (s - 1)
    rng = np.random.default_rng(8)
    model = MdpModel(states=[f"s{i}" for i in range(s)], actions=["u"],
                     kernel=np.tile(row, (s, 1, 1)),
                     weights=np.exp(rng.uniform(-0.1, 0.1, (s, 1, s))))
    policy = Policy.uniform(s, 1)
    uniforms = rng.random((3000, 6, 2))
    crowd = rng.random((2000, 6)) * 199e-7
    uniforms[:2000, :, 1] = 1.0 - crowd if big_first else crowd
    _assert_evolution_matches_reference(model, policy, 0, uniforms)


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
