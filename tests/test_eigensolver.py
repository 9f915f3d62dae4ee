"""Growth operator, certified power iteration, and policy sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    FIB_ADJACENCY,
    count_paths,
    fib_model,
    fuzz_model,
    path_count_growth,
    random_positive_model,
    random_walk_exit_model,
    two_graph_model,
)
from growthcert import (
    MdpModel,
    Policy,
    apply_T,
    apply_Tn,
    certificate_from_eigen,
    cw_bounds,
    enumerate_policy_gains,
    fixed_policy_gain,
    gen_graph_model,
    solve_eigen,
)
from growthcert.eigensolver import _POWER_STEPS, _inverse_step
from growthcert.errors import (
    NoConvergence,
    NonpositiveF,
    ReducibleGain,
    TooManyPolicies,
)


def _constant_reward_model(c: float, seed: int = 0, s: int = 4) -> MdpModel:
    rng = np.random.default_rng(seed)
    kernel = rng.gamma(1.0, size=(s, 1, s)) + 0.1
    kernel /= kernel.sum(axis=2, keepdims=True)
    return MdpModel(
        states=[f"s{i}" for i in range(s)],
        actions=["a0"],
        kernel=kernel,
        weights=np.full((s, 1, s), math.exp(c)),
    )


# ---------------------------------------------------------------------------
# apply_T / apply_Tn
# ---------------------------------------------------------------------------

def test_apply_T_singleton():
    model = MdpModel(states=["s"], actions=["u"],
                     kernel=np.ones((1, 1, 1)),
                     weights=np.full((1, 1, 1), math.e ** 2))
    tf, policy = apply_T(model, np.ones(1))
    assert_allclose(tf, [math.e ** 2], rtol=0, atol=0)
    assert_array_equal(policy.choices(), [0])


def test_apply_T_fibonacci_ones():
    tf, _ = apply_T(fib_model(), np.ones(2))
    assert_array_equal(tf, [2.0, 1.0])


def test_apply_T_breaks_ties_to_lowest_action():
    base = random_positive_model(0, s=3, a=1)
    doubled = MdpModel(
        states=base.states, actions=["a0", "a1"],
        kernel=np.repeat(base.kernel, 2, axis=1),
        weights=np.repeat(base.weights, 2, axis=1),
    )
    _, policy = apply_T(doubled, np.ones(3))
    assert_array_equal(policy.choices(), [0, 0, 0])


def test_apply_T_scaling_by_two_is_exact():
    model = random_positive_model(1)
    rng = np.random.default_rng(4)
    f = rng.uniform(0.2, 3.0, model.n_states)
    tf, _ = apply_T(model, f)
    t2f, _ = apply_T(model, 2.0 * f)
    assert_array_equal(t2f, 2.0 * tf)  # doubling is exact in binary floats


def test_apply_Tn_zero_is_identity():
    model = fib_model()
    f = np.array([0.3, 1.7])
    assert_array_equal(apply_Tn(model, f, 0), f)


def test_apply_Tn_counts_fibonacci_paths():
    # independent oracle: exhaustive depth-first enumeration of length-5 paths
    expected = [count_paths(FIB_ADJACENCY, x, 5) for x in range(2)]
    assert expected == [13, 8]
    assert_array_equal(apply_Tn(fib_model(), np.ones(2), 5), expected)


def test_apply_Tn_semigroup_property():
    rng = np.random.default_rng(10)
    for seed in range(10):
        model = random_positive_model(seed)
        f = rng.uniform(0.1, 2.0, model.n_states)
        m, n = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        lhs = apply_Tn(model, f, m + n)
        rhs = apply_Tn(model, apply_Tn(model, f, n), m)
        assert_allclose(lhs, rhs, rtol=1e-10)


# ---------------------------------------------------------------------------
# Collatz-Wielandt bounds
# ---------------------------------------------------------------------------

def test_cw_bounds_at_ones_is_gain_row_extrema():
    model = random_positive_model(2)
    lower, upper = cw_bounds(model, np.ones(model.n_states))
    a = model.gain.sum(axis=2).max(axis=1)
    assert lower == a.min()
    assert upper == a.max()


def test_cw_bounds_bracket_golden_ratio():
    lower, upper = cw_bounds(fib_model(), np.array([1.0, 0.6]))
    assert_allclose([lower, upper], [1.6, 5.0 / 3.0], rtol=1e-15)
    assert lower <= path_count_growth(FIB_ADJACENCY) <= upper


def test_cw_bounds_collapse_at_eigenvector():
    model = random_positive_model(6)
    sol = solve_eigen(model)
    lower, upper = cw_bounds(model, sol.psi)
    assert upper - lower <= 1e-8 * sol.rho
    assert lower <= sol.rho <= upper


def test_cw_bounds_reject_nonpositive_vector():
    with pytest.raises(NonpositiveF):
        cw_bounds(fib_model(), np.array([1.0, 0.0]))


def test_cw_bracket_is_monotone_along_damped_iteration():
    for seed in (0, 5, 9):
        model = random_positive_model(seed)
        f = np.ones(model.n_states)
        prev_lo, prev_hi = cw_bounds(model, f)
        for _ in range(30):
            tf, _ = apply_T(model, f)
            f = (tf + f) / (tf + f).max()
            lo, hi = cw_bounds(model, f)
            assert lo >= prev_lo - 1e-12
            assert hi <= prev_hi + 1e-12
            prev_lo, prev_hi = lo, hi


# ---------------------------------------------------------------------------
# solve_eigen
# ---------------------------------------------------------------------------

def test_solve_constant_reward_closed_form():
    c = 0.7
    sol = solve_eigen(_constant_reward_model(c))
    assert sol.converged
    assert_allclose(sol.rho, math.exp(c), rtol=1e-12)
    assert_allclose(sol.psi, 1.0, rtol=0, atol=1e-9)
    assert sol.cw_lower <= sol.rho <= sol.cw_upper


def test_solve_fibonacci_with_fallback():
    sol = solve_eigen(fib_model(), eps_fallback=1e-8)
    assert sol.regularized and sol.epsilon == 1e-8
    assert abs(sol.rho - path_count_growth(FIB_ADJACENCY)) <= 1e-6
    assert abs(sol.log_rho - math.log((1 + math.sqrt(5)) / 2)) <= 1e-6
    with pytest.raises(NoConvergence) as info:
        solve_eigen(fib_model(), eps_fallback=1e-8, max_iter=2)
    sol = info.value.solution
    assert not sol.converged and sol.regularized and sol.epsilon == 1e-8


def test_solve_matches_policy_enumeration_seed7():
    model = random_positive_model(7, s=3, a=2)
    sol = solve_eigen(model)
    _, best_gain, table = enumerate_policy_gains(model)
    assert len(table) == 8
    assert abs(sol.log_rho - best_gain) <= 1e-8


def test_solve_refuses_reducible_gain_without_fallback():
    adj = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])  # two components
    model = gen_graph_model([adj])
    with pytest.raises(ReducibleGain, match="eps_fallback"):
        solve_eigen(model)
    sol = solve_eigen(model, eps_fallback=1e-8)
    assert sol.regularized
    assert abs(sol.log_rho - math.log(2.0)) <= 1e-6  # dominated by the 2-clique


def test_solve_periodic_gain_converges():
    # the two-cycle has period-2 gain structure; plain ratio iteration
    # oscillates on it, the solver must still close the bracket
    model = gen_graph_model([np.array([[0, 1], [1, 0]])])
    sol = solve_eigen(model)
    assert sol.converged
    assert_allclose(sol.rho, 1.0, rtol=1e-10)


def test_solve_no_convergence_carries_partial_solution():
    with pytest.raises(NoConvergence) as exc_info:
        solve_eigen(fib_model(), max_iter=3)
    err = exc_info.value
    assert err.iterations == 3
    partial = err.solution
    assert partial is not None and not partial.converged
    assert partial.cw_lower <= path_count_growth(FIB_ADJACENCY) <= partial.cw_upper
    assert cw_bounds(fib_model(), partial.psi) == err.bracket


def test_solve_stops_at_an_underflowed_psi_entry():
    # weights exp U(-600, 600): the second damped step would underflow an
    # entry of psi to 0, so the solve stops at the last positive vector
    model = fuzz_model(30, "wide")
    assert (model.n_states, model.n_actions) == (2, 1)
    with pytest.raises(NoConvergence, match="underflows an entry of psi") as exc_info:
        solve_eigen(model)
    err = exc_info.value
    assert err.iterations == 2 and "within" not in str(err)
    partial = err.solution
    assert partial.iterations == 2 and not partial.converged
    assert (partial.psi > 0).all() and np.isfinite(partial.psi).all()
    assert cw_bounds(model, partial.psi) == err.bracket == (partial.cw_lower, partial.cw_upper)


@pytest.mark.parametrize("seed", [3, 10, 55])
def test_solve_stops_at_a_repeating_psi(seed):
    # once the inverse steps have stopped, psi cycles bitwise (periods 2, 6 and 3);
    # the loop stops at the first repeat of its power-of-two checkpoint
    model = fuzz_model(seed, "wide")
    with pytest.raises(NoConvergence, match="psi repeats bitwise") as exc_info:
        solve_eigen(model)
    err = exc_info.value
    partial = err.solution
    assert 512 < err.iterations == partial.iterations < 1000 and not partial.converged
    assert cw_bounds(model, partial.psi) == err.bracket == (partial.cw_lower, partial.cw_upper)
    with pytest.raises(NoConvergence) as checkpoint:
        solve_eigen(model, max_iter=512)
    assert_array_equal(checkpoint.value.solution.psi, partial.psi)


@pytest.mark.parametrize("seed", [8, 24, 113, 4_000_000_008])
def test_solve_keeps_a_rho_past_1e154_finite(seed):
    # the first bracket overlaps [1/2, 2], so the scale k stays 0 and the
    # converged lo * hi overflows; rho used to come back as inf
    sol = solve_eigen(fuzz_model(seed, "wide"))
    assert sol.converged and 1e154 < sol.rho < math.inf
    assert sol.cw_lower <= sol.rho <= sol.cw_upper
    assert sol.log_rho == pytest.approx(math.log(sol.rho), rel=1e-15)


def test_solve_rejects_nonpositive_fallback():
    with pytest.raises(ValueError, match="eps_fallback"):
        solve_eigen(fib_model(), eps_fallback=0.0)


def test_solution_is_deterministic_bitwise():
    model = random_positive_model(12)
    a = solve_eigen(model)
    b = solve_eigen(model)
    assert a.rho == b.rho and a.cw_lower == b.cw_lower and a.cw_upper == b.cw_upper
    assert_array_equal(a.psi, b.psi)
    assert_array_equal(a.v_star.phi, b.v_star.phi)


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
                                    {"tol": float("inf")}, {"max_iter": 0},
                                    {"max_iter": -5}])
def test_solve_rejects_invalid_budget_before_iterating(kwargs):
    with pytest.raises(ValueError, match="tol|max_iter"):
        solve_eigen(fib_model(), eps_fallback=1e-8, **kwargs)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-6, 1e-3, 1.0, 1e3, 1e200, 1e300])
def test_solve_is_scale_invariant(scale):
    # the damped shift must not assume rho near 1: scaling every weight by
    # ``scale`` only shifts lambda by log(scale), at any magnitude
    base = random_positive_model(3, s=20, a=3)
    model = MdpModel(states=base.states, actions=base.actions, kernel=base.kernel,
                     weights=base.weights * scale)
    sol = solve_eigen(model)
    assert sol.converged and sol.iterations <= 100
    assert sol.cw_lower <= sol.rho <= sol.cw_upper
    assert_allclose(sol.log_rho - math.log(scale), solve_eigen(base).log_rho,
                    rtol=0, atol=1e-9)
    assert certificate_from_eigen(model, sol).gap <= 1e-8


def _relabelled_cycle_model(length: int, seed: int = 0) -> MdpModel:
    """The ``length``-cycle with one self-loop, vertices relabelled at random."""
    adj = np.zeros((length, length), dtype=int)
    adj[np.arange(length), (np.arange(length) + 1) % length] = 1
    adj[0, 0] = 1
    perm = np.random.default_rng(seed).permutation(length)
    return gen_graph_model([adj[np.ix_(perm, perm)]])


def _cycle_root(length: int) -> float:
    """Largest root of ``x**L = x**(L-1) + 1``, the growth of the cycle with a self-loop."""
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid ** (length - 1) * (mid - 1.0) > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _stepping_cycle_model(seed: int) -> MdpModel:
    """A relabelled L-cycle, L in 50..300, whose 2..4 actions step by 1..3 states.

    Action 0 steps by one, so the gain graph holds the whole cycle.  The
    weights ``exp U(-0.01, 0.01)`` are nearly flat, so the damped loop mixes
    slowly.  The kernel is deterministic: one successor per (state, action).
    """
    rng = np.random.default_rng(seed)
    length, a = int(rng.integers(50, 301)), int(rng.integers(2, 5))
    steps = np.concatenate([[1], rng.integers(1, 4, a - 1)])
    perm = rng.permutation(length)
    kernel = np.zeros((length, a, length))
    for u, step in enumerate(steps):
        kernel[perm, u, perm[(np.arange(length) + step) % length]] = 1.0
    return MdpModel(states=[f"x{i}" for i in range(length)],
                    actions=[f"u{u}" for u in range(a)], kernel=kernel,
                    weights=np.exp(rng.uniform(-0.01, 0.01, (length, a, length))))


def _max_cycle_mean(model: MdpModel) -> float:
    """Optimal log growth of a strongly connected model with a deterministic kernel.

    With one successor per (state, action), ``T`` is a max-times operator
    whose eigenvalue is the largest geometric mean of the gains around a
    cycle.  Karp's theorem gives its log as ``max_v min_k (D_n(v) - D_k(v)) /
    (n - k)``, where ``D_k(v)`` is the largest log-gain of a k-step walk from
    state 0 to ``v``.
    """
    edges = np.nonzero(model.gain)
    xs, ys, log_gain = edges[0], edges[2], np.log(model.gain[edges])
    n = model.n_states
    walks = np.full((n + 1, n), -np.inf)
    walks[0, 0] = 0.0
    for k in range(1, n + 1):
        np.maximum.at(walks[k], ys, walks[k - 1, xs] + log_gain)
    with np.errstate(invalid="ignore"):
        means = (walks[n] - walks[:n]) / (n - np.arange(n))[:, None]
    means[np.isneginf(walks[:n])] = np.inf
    return float(means.min(axis=0)[np.isfinite(walks[n])].max())


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_solve_relabelled_200_cycle_with_inverse_steps(scale):
    # the damped loop alone needs 15,715 steps here; shifted inverse steps on
    # the greedy policy close the bracket a few steps after the damped phase
    base = _relabelled_cycle_model(200)
    model = MdpModel(states=base.states, actions=base.actions, kernel=base.kernel,
                     weights=base.weights * scale)
    sol = solve_eigen(model)
    assert sol.converged and _POWER_STEPS < sol.iterations <= _POWER_STEPS + 50
    assert (sol.psi > 0).all() and sol.cw_lower <= sol.rho <= sol.cw_upper
    root = _cycle_root(200)
    if scale == 1.0:
        assert abs(sol.log_rho - math.log(root)) <= 1e-12
    else:
        assert abs(sol.log_rho - math.log(scale) - math.log(root)) <= 1e-10
    assert certificate_from_eigen(model, sol).gap <= 1e-8


@pytest.mark.parametrize("spare", [1, 3, 6])
def test_solve_budget_spent_in_inverse_steps_raises_with_partial_solution(spare):
    # the damped phase ends at _POWER_STEPS; the last step of the budget
    # always goes to the bracket check at the final vector
    max_iter = _POWER_STEPS + spare
    with pytest.raises(NoConvergence) as exc_info:
        solve_eigen(_relabelled_cycle_model(200), max_iter=max_iter)
    err = exc_info.value
    assert err.iterations == max_iter
    lo, hi = err.bracket
    assert lo <= _cycle_root(200) <= hi
    partial = err.solution
    assert partial is not None and not partial.converged
    assert partial.iterations == max_iter and (partial.cw_lower, partial.cw_upper) == (lo, hi)
    assert (partial.psi > 0).all() and np.isfinite(partial.psi).all()
    assert cw_bounds(_relabelled_cycle_model(200), partial.psi) == err.bracket


@pytest.mark.parametrize("seed", range(16))
def test_solve_slow_mixing_multi_action_cycles(seed):
    model = _stepping_cycle_model(seed)
    sol = solve_eigen(model)
    assert sol.converged and sol.iterations <= _POWER_STEPS + 50
    log_rho = _max_cycle_mean(model)
    assert sol.cw_lower * (1 - 1e-12) <= math.exp(log_rho) <= sol.cw_upper * (1 + 1e-12)
    assert abs(sol.log_rho - log_rho) <= 1e-10


def test_inverse_steps_never_lower_the_bracket():
    # the lower end of the bracket of T cannot fall at a shifted inverse step,
    # while its upper end sigma can rise when the greedy policy switches, so
    # the solver stops its inverse steps on the lower end
    model = _stepping_cycle_model(0)
    f = np.ones(model.n_states)
    lo, hi = cw_bounds(model, f)
    uppers = [hi]
    for _ in range(30):
        if hi - lo <= 1e-10 * lo:
            break
        f = _inverse_step(model.gain, f, apply_T(model, f)[1].choices(), hi)
        assert f is not None and (f > 0).all() and f.max() == 1.0
        new_lo, hi = cw_bounds(model, f)
        assert new_lo >= lo
        lo = new_lo
        uppers.append(hi)
    assert (hi - lo) <= 1e-10 * lo
    assert any(b > a for a, b in zip(uppers, uppers[1:]))


def test_solution_satisfies_eigen_identity():
    for seed in range(5):
        model = random_positive_model(seed)
        sol = solve_eigen(model)
        t_psi, policy = apply_T(model, sol.psi)
        assert_allclose(t_psi, sol.rho * sol.psi, rtol=1e-8)
        # the stored policy attains the maximum at psi
        gathered = np.einsum(
            "xy,xy->x",
            model.gain[np.arange(model.n_states), policy.choices(), :],
            np.broadcast_to(sol.psi, (model.n_states, model.n_states)),
        )
        assert_allclose(gathered, t_psi, rtol=1e-12)
        assert sol.psi.max() == 1.0
        assert sol.psi.min() > 0


# ---------------------------------------------------------------------------
# fixed_policy_gain / enumerate_policy_gains
# ---------------------------------------------------------------------------

def test_fixed_policy_gain_constant_reward():
    c = -0.3
    model = _constant_reward_model(c)
    gain = fixed_policy_gain(model, Policy.deterministic([0] * 4, n_actions=1))
    assert_allclose(gain, c, rtol=0, atol=1e-10)


def test_fixed_policy_gain_exit_walk():
    model = random_walk_exit_model()
    gain = fixed_policy_gain(model, Policy.deterministic([0, 0, 0], n_actions=1))
    assert_allclose(gain, math.log(math.cos(math.pi / 4)), rtol=0, atol=1e-8)


def test_fixed_policy_gain_at_v_star_recovers_log_rho():
    model = random_positive_model(7, s=3, a=2)
    sol = solve_eigen(model)
    assert_allclose(fixed_policy_gain(model, sol.v_star), sol.log_rho,
                    rtol=0, atol=1e-8)


def test_fixed_policy_gain_randomized_policy_matches_dense_oracle():
    model = random_positive_model(8, s=4, a=3)
    policy = Policy.uniform(4, 3)
    gain = fixed_policy_gain(model, policy)
    m_phi = np.einsum("xu,xuy->xy", policy.phi, model.gain)
    oracle = math.log(max(abs(np.linalg.eigvals(m_phi))))
    assert_allclose(gain, oracle, rtol=0, atol=1e-9)


def _single_action_model(gain: np.ndarray) -> MdpModel:
    s = gain.shape[0]
    rows = gain.sum(axis=1, keepdims=True)
    return MdpModel(states=[f"s{i}" for i in range(s)], actions=["a0"],
                    kernel=(gain / rows)[:, None, :],
                    weights=np.broadcast_to(rows, (s, s))[:, None, :])


def _log_spectral_radius(mat: np.ndarray) -> float:
    return math.log(max(abs(np.linalg.eigvals(mat))))


def test_fixed_policy_gain_periodic_ring():
    # a weighted 3-cycle: three eigenvalues share the top modulus
    gain = np.roll(np.diag([2.0, 3.0, 5.0]), 1, axis=1)
    model = _single_action_model(gain)
    got = fixed_policy_gain(model, Policy.deterministic([0, 0, 0], n_actions=1))
    assert_allclose(got, math.log(30.0) / 3, rtol=0, atol=1e-10)


def test_fixed_policy_gain_closes_a_wide_seed_bracket():
    # a 30-state path with a self-loop at 0 and a faint return edge: the
    # bracket at the eigenvector seed is far wider than tol, so the damped
    # loop has to finish the job
    s = 30
    gain = np.zeros((s, s))
    gain[np.arange(s - 1), np.arange(1, s)] = 1.0
    gain[0, 0] = 1.0
    gain[s - 1, 0] = 1e-12
    vals, vecs = np.linalg.eig(gain)
    start = np.abs(vecs[:, np.abs(vals).argmax()])
    ratios = gain @ start / start
    assert ratios.max() - ratios.min() > 1e-4
    model = _single_action_model(gain)
    got = fixed_policy_gain(model, Policy.deterministic([0] * s, n_actions=1))
    assert_allclose(got, _log_spectral_radius(model.gain[:, 0, :]), rtol=0, atol=1e-10)


def test_enumerate_matches_dense_oracle_on_positive_suite():
    for seed in range(20):
        model = random_positive_model(seed)
        _, best_gain, table = enumerate_policy_gains(model)
        rows = np.arange(model.n_states)
        oracle = [_log_spectral_radius(model.gain[rows, list(choices), :])
                  for choices, _ in table]
        assert_allclose([gain for _, gain in table], oracle, rtol=0, atol=1e-10)
        assert best_gain == max(gain for _, gain in table)


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 0}])
def test_policy_gains_reject_invalid_budget(kwargs):
    model = random_positive_model(8, s=4, a=3)
    with pytest.raises(ValueError, match="tol"):
        fixed_policy_gain(model, Policy.uniform(4, 3), **kwargs)
    with pytest.raises(ValueError, match="tol"):
        enumerate_policy_gains(model, **kwargs)


def test_fixed_policy_gain_rejects_reducible_chain():
    model = gen_graph_model([np.eye(2, dtype=int)])
    with pytest.raises(ReducibleGain):
        fixed_policy_gain(model, Policy.deterministic([0, 0], n_actions=1))


def test_enumerate_single_action_has_one_row():
    model = random_positive_model(3, s=3, a=1)
    best, best_gain, table = enumerate_policy_gains(model)
    assert len(table) == 1
    assert table[0][0] == (0, 0, 0)
    assert best_gain == table[0][1]
    assert_allclose(
        best_gain,
        fixed_policy_gain(model, Policy.deterministic([0, 0, 0], n_actions=1)),
        rtol=0, atol=1e-12,
    )


def test_enumerate_nested_graphs_prefers_larger_edge_set():
    model = two_graph_model()
    best, best_gain, table = enumerate_policy_gains(model)
    assert [row[0] for row in table] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert_array_equal(best.choices(), [1, 1])
    dense = gen_graph_model([np.ones((2, 2), dtype=int)])
    assert_allclose(best_gain, solve_eigen(dense).log_rho, rtol=0, atol=1e-10)
    # the solver on the two-action model agrees and picks the larger graph
    sol = solve_eigen(model)
    assert_array_equal(sol.v_star.choices(), [1, 1])
    assert_allclose(sol.log_rho, best_gain, rtol=0, atol=1e-8)


def test_enumerate_marks_reducible_policies():
    ring = np.array([[0, 1], [1, 0]])
    loops = np.eye(2, dtype=int)
    model = gen_graph_model([loops, ring])
    _, best_gain, table = enumerate_policy_gains(model)
    gains = dict(table)
    assert gains[(0, 0)] is None  # two disjoint self-loops never mix
    assert_allclose(best_gain, 0.0, rtol=0, atol=1e-10)


def test_enumerate_cap_guards_blowup():
    model = random_positive_model(4, s=2, a=2)
    with pytest.raises(TooManyPolicies):
        enumerate_policy_gains(model, cap=3)
