"""Occupation-measure objective, duality bounds, and the smoothed family."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (fib_model, fuzz_model, random_positive_model, random_walk_exit_model,
                      split_graph_model, two_graph_model)
from growthcert import (
    Certificate,
    MdpModel,
    OccupationMeasure,
    SweepPoint,
    certificate_from_eigen,
    dual_bound,
    eigensolver,
    epsilon_model,
    epsilon_sweep,
    maximize,
    objective_psi0,
    random_feasible,
    relative_entropy,
    solve_eigen,
    stationarity_residual,
    twisted_occupation,
    validate,
    variational,
)
from growthcert.errors import (
    DimensionMismatch,
    NoConvergence,
    NotConverged,
    NotDistribution,
    ReducibleGain,
    RowSumViolation,
    SingularChain,
    ZeroGainRow,
)
from growthcert.variational import _stationary


def _singleton(weight: float) -> MdpModel:
    return MdpModel(states=["s0"], actions=["a0"],
                    kernel=np.ones((1, 1, 1)), weights=np.full((1, 1, 1), weight))


def _uniform_reference_measure(model: MdpModel) -> OccupationMeasure:
    """Uniform state/action marginal composed with the model kernel."""
    s, a = model.n_states, model.n_actions
    return OccupationMeasure(model.kernel / (s * a))


# ---------------------------------------------------------------------------
# OccupationMeasure
# ---------------------------------------------------------------------------

def test_occupation_measure_accessors():
    joint = np.array([[[0.2, 0.2], [0.1, 0.0]],
                      [[0.0, 0.3], [0.1, 0.1]]])
    eta = OccupationMeasure(joint)
    assert_allclose(eta.eta0(), [0.5, 0.5], rtol=0, atol=0)
    assert_allclose(eta.eta_tilde(), [[0.4, 0.1], [0.3, 0.2]], rtol=1e-15)
    assert_allclose(eta.eta1(), [[0.8, 0.2], [0.6, 0.4]], rtol=1e-15)
    assert_allclose(eta.eta2()[0, 0], [0.5, 0.5], rtol=1e-15)
    assert_allclose(eta.eta2()[1, 0], [0.0, 1.0], rtol=1e-15)


def test_occupation_measure_requires_unit_mass():
    with pytest.raises(NotDistribution):
        OccupationMeasure(np.full((1, 1, 1), 0.5))
    with pytest.raises(NotDistribution):
        OccupationMeasure(np.array([[[1.5, -0.5]]]))


def test_occupation_measure_owns_a_read_only_copy():
    joint = np.full((2, 1, 2), 0.25)
    eta = OccupationMeasure(joint)
    joint[0, 0, 0] = 0.5
    assert_array_equal(eta.joint, np.full((2, 1, 2), 0.25))
    with pytest.raises(ValueError, match="read-only"):
        eta.joint[0, 0, 0] = 0.5


# ---------------------------------------------------------------------------
# relative_entropy
# ---------------------------------------------------------------------------

def test_relative_entropy_is_zero_on_identical():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(5))
    assert relative_entropy(p, p) == 0.0


def test_relative_entropy_single_atom():
    assert_allclose(relative_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5])),
                    math.log(2.0), rtol=1e-15)


def test_relative_entropy_two_point_value():
    value = relative_entropy(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert_allclose(value, expected, rtol=1e-15)
    assert round(value, 5) == 0.14384


def test_relative_entropy_infinite_off_support():
    assert relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf


def test_relative_entropy_rejects_non_distributions():
    with pytest.raises(NotDistribution):
        relative_entropy(np.array([0.6, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(NotDistribution):
        relative_entropy(np.array([0.5, 0.5]), np.array([0.7, 0.2]))


# ---------------------------------------------------------------------------
# objective and residual
# ---------------------------------------------------------------------------

def test_objective_without_tilt_averages_log_weights():
    model = random_positive_model(1)
    eta = _uniform_reference_measure(model)
    # conditional next-state laws equal the kernel rows, so the divergence
    # term vanishes and only the average log weight remains
    expected = float(np.sum(eta.joint * np.log(model.weights)))
    assert_allclose(objective_psi0(model, eta), expected, rtol=1e-12)


def test_objective_is_minus_infinity_off_support():
    model = fib_model()
    joint = np.zeros((2, 1, 2))
    joint[1, 0, 1] = 1.0  # transition 1 -> 1 is not an edge
    assert objective_psi0(model, OccupationMeasure(joint)) == -math.inf


def test_objective_at_twisted_measure_equals_log_rho():
    model = random_positive_model(7, s=3, a=2)
    sol = solve_eigen(model)
    eta = twisted_occupation(model, sol)
    assert_allclose(objective_psi0(model, eta), sol.log_rho, rtol=0, atol=1e-8)


def test_objective_single_action_matches_plain_divergence_form():
    model = random_positive_model(9, a=1)
    eta = random_feasible(model, seed=3)
    tilde = eta.eta_tilde()
    acc = 0.0
    for x in range(model.n_states):
        cond = eta.joint[x, 0] / tilde[x, 0]
        ref = model.kernel[x, 0] * model.weights[x, 0]
        acc -= tilde[x, 0] * float(
            np.sum(cond[cond > 0] * np.log(cond[cond > 0] / ref[cond > 0]))
        )
    assert_allclose(objective_psi0(model, eta), acc, rtol=0, atol=1e-13)


def test_residual_zero_for_stationary_composition():
    model = random_positive_model(5)
    eta = random_feasible(model, seed=0)
    _, max_abs = stationarity_residual(eta)
    assert max_abs <= 1e-10


def test_stationary_of_decomposable_chain_is_singular():
    with pytest.raises(SingularChain):
        _stationary(np.eye(2))


def test_residual_zero_for_doubly_stochastic_induced_kernel():
    kernel = np.array([[[0.3, 0.7]], [[0.7, 0.3]]])
    model = MdpModel(states=["a", "b"], actions=["u"],
                     kernel=kernel, weights=np.ones((2, 1, 2)))
    _, max_abs = stationarity_residual(_uniform_reference_measure(model))
    assert max_abs <= 1e-12


def test_residual_positive_for_asymmetric_kernel():
    kernel = np.array([[[0.9, 0.1]], [[0.5, 0.5]]])
    model = MdpModel(states=["a", "b"], actions=["u"],
                     kernel=kernel, weights=np.ones((2, 1, 2)))
    vec, max_abs = stationarity_residual(_uniform_reference_measure(model))
    assert_allclose(vec, [0.2, -0.2], rtol=1e-12)
    assert max_abs > 0.1


# ---------------------------------------------------------------------------
# twisted_occupation
# ---------------------------------------------------------------------------

def test_twisted_singleton_point_mass():
    c = 1.3
    model = _singleton(math.exp(c))
    sol = solve_eigen(model)
    eta = twisted_occupation(model, sol)
    assert_array_equal(eta.joint, np.ones((1, 1, 1)))
    assert_allclose(objective_psi0(model, eta), c, rtol=1e-12)


def test_twisted_measure_is_feasible_and_optimal():
    for seed in (0, 7, 13):
        model = random_positive_model(seed)
        sol = solve_eigen(model)
        eta = twisted_occupation(model, sol)
        _, max_abs = stationarity_residual(eta)
        assert max_abs <= 1e-10
        assert abs(objective_psi0(model, eta) - sol.log_rho) <= 1e-8


def test_twisted_requires_converged_solution():
    model = random_positive_model(0)
    with pytest.raises(NoConvergence) as exc_info:
        solve_eigen(model, max_iter=1)
    stale = exc_info.value.solution
    with pytest.raises(NotConverged):
        twisted_occupation(model, stale)


def test_twisted_rejects_mismatched_model():
    model_a = random_positive_model(21)
    model_b = random_positive_model(22, s=model_a.n_states, a=model_a.n_actions)
    sol = solve_eigen(model_a)
    with pytest.raises(RowSumViolation):
        twisted_occupation(model_b, sol)
    model_c = random_positive_model(22, s=model_a.n_states + 1, a=model_a.n_actions)
    for route in (twisted_occupation, certificate_from_eigen):
        with pytest.raises(DimensionMismatch, match="does not match model"):
            route(model_c, sol)


# ---------------------------------------------------------------------------
# random_feasible
# ---------------------------------------------------------------------------

def test_random_feasible_contract():
    model = random_positive_model(4)
    eta = random_feasible(model, seed=42)
    assert abs(eta.joint.sum() - 1.0) <= 1e-12
    _, max_abs = stationarity_residual(eta)
    assert max_abs <= 1e-10
    assert np.all(eta.joint[model.kernel == 0] == 0)
    assert_array_equal(eta.joint, random_feasible(model, seed=42).joint)
    assert not np.array_equal(eta.joint, random_feasible(model, seed=43).joint)


def test_random_feasible_refuses_where_solve_refuses():
    with pytest.raises(ReducibleGain, match="not strongly connected"):
        random_feasible(split_graph_model(), seed=0)


def test_random_feasible_objective_below_lambda_on_zero_gain_models():
    # weak duality off the positive family: every model solve accepts, zero gains and all
    models = [fib_model(), two_graph_model(), random_walk_exit_model()] + [
        fuzz_model(seed, family) for family in ("periodic", "zero-row") for seed in range(100)]
    draws = 0
    for model in models:
        try:
            lam = solve_eigen(model).log_rho
        except ReducibleGain:
            continue
        for seed in range(10):
            value = objective_psi0(model, random_feasible(model, seed=seed))
            assert math.isfinite(value) and value <= lam + 1e-9
            draws += 1
    assert draws >= 1500


def test_random_feasible_objective_below_log_rho():
    model = random_positive_model(16)
    sol = solve_eigen(model)
    for seed in range(30):
        eta = random_feasible(model, seed=seed)
        assert objective_psi0(model, eta) <= sol.log_rho + 1e-9


# ---------------------------------------------------------------------------
# maximize
# ---------------------------------------------------------------------------

def test_maximize_singleton_is_immediate():
    c = -0.4
    cert = maximize(_singleton(math.exp(c)))
    assert_allclose([cert.primal_lower, cert.dual_upper], c, rtol=0, atol=1e-12)
    assert stationarity_residual(cert.eta)[1] <= 1e-12
    assert_allclose(cert.eta.joint, 1.0, rtol=0, atol=1e-12)


def test_maximize_reaches_log_rho():
    model = random_positive_model(7, s=3, a=2)
    sol = solve_eigen(model)
    cert = maximize(model, tol=1e-6)
    assert stationarity_residual(cert.eta)[1] <= 1e-6
    assert sol.log_rho - 1e-4 <= cert.primal_lower <= sol.log_rho + 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_maximize_converges_and_certifies_its_gap(seed):
    """Five of these twelve models exhausted the budget of the mirror-ascent maximizer."""
    model = random_positive_model(seed, s=8 + seed % 5, a=3)
    lam = solve_eigen(model).log_rho
    tol = 1e-6
    cert = maximize(model, tol=tol)
    assert cert.gap <= 10 * tol * max(1.0, abs(lam))
    assert cert.primal_lower <= lam + 1e-9
    assert cert.dual_upper >= lam - 1e-9
    assert_allclose(cert.primal_lower, objective_psi0(model, cert.eta), rtol=0, atol=0)
    assert_allclose(cert.dual_upper, dual_bound(model, cert.g), rtol=0, atol=0)
    assert stationarity_residual(cert.eta)[1] <= tol


def test_maximize_closes_with_its_own_pair_values(monkeypatch):
    def refuse(model, g):
        raise AssertionError("dual_bound recomputes the pair values maximize holds")

    monkeypatch.setattr(variational, "dual_bound", refuse)
    cert = maximize(random_positive_model(3, s=8, a=3))
    assert cert.gap <= 1e-6 * max(1.0, abs(cert.primal_lower))


@pytest.mark.parametrize("model", [split_graph_model(), fuzz_model(2, "zero-row"),
                                   _singleton(0.0)],
                         ids=["split-graph", "zero-row-dead-state", "dead-singleton"])
def test_maximize_refuses_where_solve_refuses(model):
    # one refusal rule for both routes: a gain graph not strongly connected, or a dead state
    with pytest.raises(ReducibleGain) as solve_refusal:
        solve_eigen(model)
    with pytest.raises(ReducibleGain) as refusal:
        maximize(model)
    assert str(refusal.value) == str(solve_refusal.value)


@pytest.mark.parametrize("family", ["periodic", "zero-row"])
def test_maximize_brackets_solve_or_both_refuse_on_zero_gain_families(family):
    # Psi0 is -inf off the gain support, so the formula needs no positivity: each
    # draw is bracketed around solve's rate, or both routes refuse it
    misses = []
    for seed in range(100):
        model = fuzz_model(seed, family)
        try:
            lam = solve_eigen(model).log_rho
        except ReducibleGain:
            with pytest.raises(ReducibleGain):
                maximize(model)
            continue
        cert = maximize(model)
        slack = 1e-9 * max(1.0, abs(lam))
        if not cert.primal_lower - slack <= lam <= cert.dual_upper + slack:
            misses.append((seed, cert.primal_lower, lam, cert.dual_upper))
    assert misses == []


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": float("nan")},
                                    {"iters": 0}, {"iters": -2},
                                    {"tol": -1e-6}, {"tol": float("inf")},
                                    {"tol": float("-inf")}])
def test_maximize_rejects_invalid_arguments_before_iterating(kwargs, monkeypatch):
    def no_iteration(*_args, **_kwargs):
        raise AssertionError("maximize started iterating")

    monkeypatch.setattr("growthcert.variational._smoothed_dual", no_iteration)
    with pytest.raises(ValueError, match="tol|iters"):
        maximize(random_positive_model(1), **kwargs)


def test_maximize_exhausted_budget_carries_certificate():
    model = random_positive_model(1)
    sol = solve_eigen(model)
    with pytest.raises(NoConvergence) as exc_info:
        maximize(model, iters=3)
    assert exc_info.value.iterations == 3
    cert = exc_info.value.certificate
    assert cert.primal_lower <= sol.log_rho + 1e-9  # still a true bracket
    assert cert.dual_upper >= sol.log_rho - 1e-9
    assert cert.gap == cert.dual_upper - cert.primal_lower
    _, max_abs = stationarity_residual(cert.eta)
    assert max_abs <= 1e-9


# ---------------------------------------------------------------------------
# dual_bound
# ---------------------------------------------------------------------------

def test_dual_bound_at_log_psi_is_log_rho():
    model = random_positive_model(7, s=3, a=2)
    sol = solve_eigen(model)
    assert_allclose(dual_bound(model, np.log(sol.psi)), sol.log_rho,
                    rtol=0, atol=1e-8)


def test_dual_bound_at_zero_vector():
    model = random_positive_model(2)
    expected = math.log(model.gain.sum(axis=2).max())
    assert_allclose(dual_bound(model, np.zeros(model.n_states)), expected,
                    rtol=1e-12)


def test_dual_bound_dominates_feasible_objectives():
    model = random_positive_model(6)
    rng = np.random.default_rng(0)
    for seed in range(20):
        eta = random_feasible(model, seed=seed)
        g = rng.normal(size=model.n_states)
        assert objective_psi0(model, eta) <= dual_bound(model, g) + 1e-9


def test_dual_bound_skips_a_dead_pair_beside_a_live_one():
    kernel = np.array([[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5]],
                       [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]],
                       [[0.0, 0.0, 1.0], [0.3, 0.3, 0.4]]])
    weights = np.exp(np.random.default_rng(3).uniform(-2.0, 2.0, size=kernel.shape))
    weights[1, 0] = 0.0  # a dead (state, action) row beside the live action 1
    model = MdpModel(states=["a", "b", "c"], actions=["u", "v"], kernel=kernel, weights=weights)
    for g in (np.zeros(3), np.array([0.5, -1.0, 2.0]), np.array([-300.0, 250.0, 10.0])):
        want = max(
            math.log(sum(gain * math.exp(gy) for gain, gy in zip(model.gain[x, u], g) if gain > 0))
            - g[x]
            for x in range(3) for u in range(2) if model.gain[x, u].any()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = dual_bound(model, g)
        assert_allclose(got, want, rtol=1e-14, atol=0)


def test_dual_bound_with_a_dead_state_is_finite():
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0, 1] = 1.0
    kernel[1, 0, :] = 0.5
    weights = np.zeros((2, 1, 2))
    weights[1, 0, :] = 1.0  # state 0 has an all-zero reward row; the rate is log 0.5
    model = MdpModel(states=["a", "b"], actions=["u"], kernel=kernel, weights=weights)
    at_zero = dual_bound(model, np.zeros(2))
    assert math.isfinite(at_zero) and at_zero >= math.log(0.5)
    assert dual_bound(model, np.array([-50.0, 0.0])) == math.log(0.5)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_from_eigen_sandwich():
    model = random_positive_model(10)
    sol = solve_eigen(model)
    cert = certificate_from_eigen(model, sol)
    assert isinstance(cert, Certificate)
    assert cert.gap >= -1e-9
    assert cert.primal_lower - 1e-9 <= sol.log_rho <= cert.dual_upper + 1e-9
    assert cert.gap <= 1e-8


def _reference_certificate(model: MdpModel, sol):
    """``(primal, dual, joint, g)`` of ``certificate_from_eigen``, the long way.

    A full ``(s, a, s)`` next-state law closed by ``_stationary_measure``,
    logs behind ``np.where`` guards and a shifted copy of the pair exponents.
    """
    target = epsilon_model(model, sol.epsilon) if sol.regularized else model
    gain, s, choices = target.gain, target.n_states, sol.v_star.choices()
    P = gain[np.arange(s), choices] * sol.psi[None, :] / (sol.rho * sol.psi[:, None])
    eta2 = np.zeros(gain.shape)
    eta2[np.arange(s), choices] = P / P.sum(axis=1)[:, None]
    joint = variational._stationary_measure(sol.v_star.phi, eta2).joint
    sup = joint > 0
    etat, _, cond = variational._conditionals(joint)
    terms = np.where(
        sup,
        cond * (np.log(np.where(sup, cond, 1.0)) - np.log(np.where(gain > 0, gain, 1.0))),
        0.0,
    )
    primal = -float(np.einsum("xu,xuy->", etat, terms))
    g = np.log(sol.psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.log(gain) + g
        zmax = z.max(axis=2, keepdims=True)
        L = zmax[:, :, 0] + np.log(np.exp(z - zmax).sum(axis=2)) - g[:, None]
    dual = float(L[gain.any(axis=2)].max())
    return primal, dual, joint, g


_BITWISE_MODELS = (
    [("positive", seed) for seed in range(10)] + [("positive-200x8", 7)]
    + [(family, seed) for family in ("periodic", "zero-row", "near-decomposable")
       for seed in range(5)]
)


@pytest.mark.parametrize("kind, seed", _BITWISE_MODELS)
def test_certificate_from_eigen_matches_the_long_way_bit_for_bit(kind, seed):
    if kind == "positive":
        model = random_positive_model(seed)
    elif kind == "positive-200x8":
        model = random_positive_model(seed, s=200, a=8)
    else:
        model = fuzz_model(seed, kind)
    try:
        solve_eigen(model)
        refused = False
    except ReducibleGain:
        refused = True
    sol = solve_eigen(model, eps_fallback=1e-6)
    assert sol.regularized == refused  # smoothed exactly where solve refuses
    cert = certificate_from_eigen(model, sol)
    primal, dual, joint, g = _reference_certificate(model, sol)
    bounds = np.array([cert.primal_lower, cert.dual_upper, cert.gap])
    assert bounds.tobytes() == np.array([primal, dual, dual - primal]).tobytes()
    assert cert.eta.joint.tobytes() == joint.tobytes()
    assert cert.g.tobytes() == g.tobytes()


# ---------------------------------------------------------------------------
# epsilon family
# ---------------------------------------------------------------------------

def test_epsilon_zero_preserves_rate_on_positive_model():
    model = random_positive_model(3)
    companion = epsilon_model(model, 0.0)
    assert_allclose(companion.gain, model.gain, rtol=1e-15)
    assert abs(solve_eigen(companion).log_rho - solve_eigen(model).log_rho) <= 1e-12


def test_epsilon_zero_needs_positive_gain_rows():
    kernel = np.ones((2, 1, 2)) / 2
    weights = np.zeros((2, 1, 2))
    weights[0] = 1.0
    model = MdpModel(states=["a", "b"], actions=["u"], kernel=kernel, weights=weights)
    with pytest.raises(ZeroGainRow):
        epsilon_model(model, 0.0)


def test_epsilon_model_is_fully_supported():
    for eps in (1e-1, 1e-4, 1e-8):
        companion = epsilon_model(fib_model(), eps)
        report = validate(companion)
        assert report.a0_plus and report.a1_plus
        assert np.all(np.abs(companion.kernel.sum(axis=2) - 1.0) <= 1e-12)


def test_epsilon_params_validation():
    for eps in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            epsilon_model(fib_model(), eps)


def test_regularized_solution_certifies_itself():
    model = split_graph_model()
    sol = solve_eigen(model, eps_fallback=1e-8)
    assert sol.regularized
    companion = epsilon_model(model, sol.epsilon)
    on_companion = replace(sol, epsilon=0.0)
    assert not on_companion.regularized
    cert = certificate_from_eigen(model, sol)
    expected = certificate_from_eigen(companion, on_companion)
    for name in ("primal_lower", "dual_upper", "gap"):
        assert getattr(cert, name) == getattr(expected, name)
    assert_array_equal(cert.g, expected.g)
    assert_array_equal(cert.eta.joint, expected.eta.joint)
    assert_array_equal(twisted_occupation(model, sol).joint,
                       twisted_occupation(companion, on_companion).joint)
    assert cert.gap <= 1e-8


def test_epsilon_rates_shrink_with_epsilon():
    model = fib_model()
    rates = [
        solve_eigen(epsilon_model(model, eps)).log_rho
        for eps in (0.1, 0.01, 0.001)
    ]
    assert rates[0] >= rates[1] >= rates[2]


def test_sweep_on_fibonacci_approaches_golden_rate():
    model = fib_model()
    grid = [10.0 ** -k for k in range(1, 7)]
    points = epsilon_sweep(model, grid)
    assert [pt.epsilon for pt in points] == grid
    assert all(pt.converged for pt in points)
    values = [pt.lambda_eps for pt in points]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert abs(values[-1] - math.log((1 + math.sqrt(5)) / 2)) <= 1e-3


def test_sweep_single_state_closed_form():
    w = 0.8
    model = _singleton(w)
    points = epsilon_sweep(model, [0.1, 0.01])
    for pt in points:
        assert_allclose(pt.lambda_eps, math.log(w + pt.epsilon), rtol=0, atol=1e-10)


def test_sweep_marks_a_stopped_point_with_its_partial_rate():
    # the smoothed wide draw stops at a repeating psi; the point keeps the
    # rate of the partial solution the stop carries
    model = fuzz_model(3, "wide")
    (point,) = epsilon_sweep(model, [1e-3])
    with pytest.raises(NoConvergence, match="psi repeats bitwise") as exc_info:
        solve_eigen(epsilon_model(model, 1e-3))
    partial = exc_info.value.solution
    assert point == SweepPoint(1e-3, partial.log_rho, False, partial.iterations)
    assert isinstance(point.lambda_eps, float) and math.isfinite(point.lambda_eps)


def test_sweep_rising_rates_raise_no_convergence(monkeypatch):
    rates = iter([0.0, 1.0])
    monkeypatch.setattr(eigensolver, "solve_eigen",
                        lambda model: SimpleNamespace(log_rho=next(rates), iterations=1))
    with pytest.raises(NoConvergence, match="increased from eps=0.1 to eps=0.01"):
        epsilon_sweep(_singleton(1.0), [0.1, 0.01])


def test_maximize_types_a_singular_newton_system():
    # kernel mass of 1e-13 between the two states makes the Newton system
    # singular in floating point; the certificate closed there is typed
    model = fuzz_model(1007, "near-decomposable")
    assert (model.n_states, model.n_actions) == (2, 1)
    with pytest.raises(NoConvergence, match="singular Newton system") as exc_info:
        maximize(model)
    cert = exc_info.value.certificate
    assert cert.gap > 1e-6
    assert cert.primal_lower <= solve_eigen(model).log_rho <= cert.dual_upper


@pytest.mark.parametrize("seed", [79_256, 4_000_000_008])
def test_maximize_types_a_newton_system_whose_scale_overflows(seed):
    # the gap of these wide-range draws never closes, so tau falls tenfold per
    # round until (L - max) / tau and 1 / tau overflow; that system is
    # singular, with no warning
    model = fuzz_model(seed, "wide")
    with pytest.raises(NoConvergence, match="singular Newton system") as exc_info:
        maximize(model)
    assert exc_info.value.certificate.gap > 1e-6


@pytest.mark.parametrize("family, seed", [("near-decomposable", 5), ("near-decomposable", 6),
                                          ("wide", 11)])
def test_maximize_types_a_closure_whose_stationary_solve_fails(family, seed):
    # the closed chain is nearly decomposable, and its stationary solve raised
    # SingularChain; the last certificate closed before it, if any, is carried
    model = fuzz_model(seed, family)
    with pytest.raises(NoConvergence, match="could not close a certificate") as exc_info:
        maximize(model)
    assert isinstance(exc_info.value.__cause__, SingularChain)
    cert = exc_info.value.certificate
    if family == "wide":
        assert cert is None
    else:
        assert cert.gap > 1e-6
        assert cert.primal_lower <= solve_eigen(model).log_rho <= cert.dual_upper


@pytest.mark.parametrize("grid", [[1e-2, 1e-3, math.nan], [math.inf, 1e-3]])
def test_sweep_rejects_a_non_finite_grid_entry_before_solving(grid, monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("epsilon_sweep started solving")

    monkeypatch.setattr(eigensolver, "solve_eigen", no_solve)
    with pytest.raises(ValueError, match="grid must be non-empty with finite"):
        epsilon_sweep(fib_model(), grid)


def test_sweep_grid_must_decrease():
    with pytest.raises(ValueError, match="decreasing"):
        epsilon_sweep(_singleton(1.0), [0.01, 0.1])
    with pytest.raises(ValueError, match="positive"):
        epsilon_sweep(_singleton(1.0), [0.1, 0.0])
