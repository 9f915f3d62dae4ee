"""Acceptance suite: one certified pass/fail line per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; each
test prints ``[criterion NN] PASS/FAIL <evidence>`` before asserting, so a
plain ``pytest`` run reports the same information on failure.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from conftest import (
    FIB_ADJACENCY,
    binary_entropy_rate,
    fib_model,
    mild_model,
    path_count_growth,
    random_positive_model,
    random_walk_exit_model,
)
from growthcert import (
    apply_T,
    apply_Tn,
    cw_bounds,
    dual_bound,
    enumerate_policy_gains,
    epsilon_sweep,
    estimate_growth,
    fixed_policy_gain,
    gen_portfolio_model,
    maximize,
    objective_psi0,
    random_feasible,
    solve_eigen,
    stationarity_residual,
    twisted_occupation,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


@functools.lru_cache(maxsize=1)
def _positive_suite():
    """Twenty seeded positive models with their certified solutions."""
    models = tuple(random_positive_model(seed) for seed in range(20))
    t0 = time.perf_counter()
    sols = tuple(solve_eigen(m) for m in models)
    solve_seconds = time.perf_counter() - t0
    return models, sols, solve_seconds


def test_criterion_01_strong_duality():
    models, sols, solve_seconds = _positive_suite()
    t0 = time.perf_counter()
    worst = 0.0
    for model, sol in zip(models, sols):
        eta = twisted_occupation(model, sol)
        worst = max(worst, abs(sol.log_rho - objective_psi0(model, eta)))
        worst = max(worst, abs(sol.log_rho - dual_bound(model, np.log(sol.psi))))
    elapsed = solve_seconds + (time.perf_counter() - t0)
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"primal/dual agreement on 20 models: worst gap {worst:.2e}, "
                   f"{elapsed:.2f}s")


def test_criterion_02_policy_enumeration_optimality():
    models, sols, _ = _positive_suite()
    t0 = time.perf_counter()
    worst_gain = worst_tie = 0.0
    for model, sol in zip(models, sols):
        _, best_gain, _ = enumerate_policy_gains(model)
        worst_gain = max(worst_gain, abs(best_gain - sol.log_rho))
        worst_tie = max(worst_tie,
                        abs(fixed_policy_gain(model, sol.v_star) - best_gain))
    elapsed = time.perf_counter() - t0
    ok = worst_gain <= 1e-8 and worst_tie <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"exhaustive policy sweep: solver gap {worst_gain:.2e}, "
                   f"v* tie gap {worst_tie:.2e}, {elapsed:.2f}s")


def test_criterion_03_collatz_wielandt_sandwich():
    models, sols, _ = _positive_suite()
    sandwich_ok = True
    worst_width = 0.0
    for i, (model, sol) in enumerate(zip(models, sols)):
        rng = np.random.default_rng(1000 + i)
        for _ in range(100):
            f = rng.uniform(0.1, 2.0, model.n_states)
            lower, upper = cw_bounds(model, f)
            if not (lower <= sol.rho * (1 + 1e-12) and sol.rho <= upper * (1 + 1e-12)):
                sandwich_ok = False
        lower, upper = cw_bounds(model, sol.psi)
        worst_width = max(worst_width, (upper - lower) / sol.rho)
    ok = sandwich_ok and worst_width <= 1e-8
    _report(3, ok, f"2000 random brackets contain rho: {sandwich_ok}; "
                   f"width at psi <= {worst_width:.2e} relative")


def test_criterion_04_weak_duality():
    models, sols, _ = _positive_suite()
    worst_primal = -math.inf
    worst_dual = math.inf
    for i, (model, sol) in enumerate(zip(models, sols)):
        for seed in range(100):
            eta = random_feasible(model, seed=seed)
            worst_primal = max(worst_primal,
                               objective_psi0(model, eta) - sol.log_rho)
        rng = np.random.default_rng(2000 + i)
        for _ in range(100):
            g = rng.normal(size=model.n_states)
            worst_dual = min(worst_dual, dual_bound(model, g) - sol.log_rho)
    ok = worst_primal <= 1e-9 and worst_dual >= -1e-9
    _report(4, ok, f"2000 feasible values below log rho (max excess "
                   f"{worst_primal:.2e}); 2000 dual values above (min margin "
                   f"{worst_dual:.2e})")


def test_criterion_05_golden_ratio_capacity():
    t0 = time.perf_counter()
    model = fib_model()
    sol = solve_eigen(model, eps_fallback=1e-8)
    eta = twisted_occupation(model, sol)
    pi_leave = float(eta.eta2()[0, 0, 1])
    elapsed = time.perf_counter() - t0

    oracle_rho = path_count_growth(FIB_ADJACENCY, n=40)
    ts = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
    rates = binary_entropy_rate(ts)
    t_star = float(ts[np.argmax(rates)])
    cert = maximize(model)  # the variational route on the unsmoothed shift
    closed_form = math.log((1.0 + math.sqrt(5.0)) / 2.0)

    ok = (
        abs(sol.rho - 1.6180340) <= 1e-6
        and abs(oracle_rho - 1.6180340) <= 1e-6
        and abs(pi_leave - 0.38197) <= 1e-4
        and abs(pi_leave - t_star) <= 1e-4
        and abs(sol.log_rho - float(rates.max())) <= 1e-6
        and cert.primal_lower - 1e-9 <= closed_form <= cert.dual_upper + 1e-9
        and elapsed < 1.0
    )
    _report(5, ok, f"rho {sol.rho:.9f} vs path counts {oracle_rho:.9f}; "
                   f"twisted exit prob {pi_leave:.5f} vs entropy argmax "
                   f"{t_star:.5f}; variational [{cert.primal_lower:.10f}, "
                   f"{cert.dual_upper:.10f}] around log phi {closed_form:.10f}; "
                   f"{elapsed:.3f}s")


def test_criterion_06_slowest_exit_rate():
    t0 = time.perf_counter()
    model = random_walk_exit_model()
    sol = solve_eigen(model)
    elapsed = time.perf_counter() - t0

    block = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
    f = np.ones(3)
    for _ in range(200):
        g = block @ f + f
        f = g / g.max()
    ratios = (block @ f) / f
    oracle = math.log(float(ratios.mean()))
    assert ratios.max() - ratios.min() <= 1e-12

    closed_form = math.log(math.cos(math.pi / 4.0))
    cert = maximize(model)  # the variational route on the zero-kernel exit model
    ok = (
        abs(sol.log_rho - closed_form) <= 1e-8
        and abs(oracle - closed_form) <= 1e-10
        and cert.primal_lower - 1e-9 <= closed_form <= cert.dual_upper + 1e-9
        and elapsed < 1.0
    )
    _report(6, ok, f"exit rate {sol.log_rho:.10f} vs log cos(pi/4) "
                   f"{closed_form:.10f} (power-iteration oracle {oracle:.10f}; "
                   f"variational [{cert.primal_lower:.10f}, {cert.dual_upper:.10f}]); "
                   f"{elapsed:.3f}s")


def _two_state_support(rng):
    return [
        [
            [(0.5, rng.uniform(0.85, 1.25, size=1)),
             (0.5, rng.uniform(0.85, 1.25, size=1))]
            for _ in range(2)
        ]
        for _ in range(2)
    ]


def test_criterion_07_portfolio_sanity():
    theta, r_bank = 1.7, 0.06
    rng = np.random.default_rng(77)
    bank_only = gen_portfolio_model(
        Q=np.array([[0.7, 0.3], [0.4, 0.6]]),
        w_support=_two_state_support(rng),
        theta=theta,
        r_bank=r_bank,
        grid=[[0.0]],
    )
    bank_rate = solve_eigen(bank_only).log_rho
    bank_gap = abs(bank_rate - (-(theta / 2.0) * r_bank))

    risky = gen_portfolio_model(
        Q=np.array([[0.7, 0.3], [0.4, 0.6]]),
        w_support=_two_state_support(rng),
        theta=theta,
        r_bank=r_bank,
        grid=[[0.0], [0.25], [0.5], [0.75], [1.0]],
    )
    sol = solve_eigen(risky)
    _, best_gain, table = enumerate_policy_gains(risky)
    enum_gap = abs(sol.log_rho - best_gain)
    ok = bank_gap <= 1e-12 and enum_gap <= 1e-8 and len(table) == 25
    _report(7, ok, f"bank-only rate off by {bank_gap:.2e}; 5-action grid vs "
                   f"25-policy enumeration off by {enum_gap:.2e}")


def test_criterion_08_epsilon_family_limit():
    model = fib_model()
    grid = [10.0 ** -k for k in range(1, 7)]
    points = epsilon_sweep(model, grid)
    values = [pt.lambda_eps for pt in points]
    monotone = all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    fallback = solve_eigen(model, eps_fallback=1e-8).log_rho
    tail_gap = abs(values[-1] - fallback)
    ok = monotone and all(pt.converged for pt in points) and tail_gap <= 1e-3
    _report(8, ok, f"rates non-increasing over eps 1e-1..1e-6: {monotone}; "
                   f"eps=1e-6 within {tail_gap:.2e} of the fallback solve")


def test_criterion_09_operator_laws():
    rng = np.random.default_rng(99)
    worst_semi = worst_hom = 0.0
    monotone = True
    for t in range(50):
        model = random_positive_model(3000 + t)
        f = rng.uniform(0.1, 3.0, model.n_states)
        g = f + rng.uniform(0.0, 1.0, model.n_states)
        m, n = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        lhs = apply_Tn(model, f, m + n)
        rhs = apply_Tn(model, apply_Tn(model, f, n), m)
        worst_semi = max(worst_semi, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
        tf, _ = apply_T(model, f)
        tg, _ = apply_T(model, g)
        if np.any(tf > tg + 1e-12):
            monotone = False
        for c in (0.5, 2.0, 10.0):
            tcf, _ = apply_T(model, c * f)
            worst_hom = max(worst_hom,
                            float(np.max(np.abs(tcf - c * tf) / (c * tf))))
    ok = worst_semi <= 1e-10 and monotone and worst_hom <= 1e-12
    _report(9, ok, f"semigroup defect {worst_semi:.2e}, monotone {monotone}, "
                   f"homogeneity defect {worst_hom:.2e} on 50 random triples")


def test_criterion_10_monte_carlo_agreement():
    worst_z = 0.0
    for seed in (200, 201, 203, 204, 208):
        model = mild_model(seed)
        sol = solve_eigen(model)
        est = estimate_growth(model, sol.v_star, n=200, paths=10_000,
                              batches=20, seed=seed)
        worst_z = max(worst_z, abs(est.point - sol.log_rho) / est.stderr)

    from growthcert import MdpModel, Policy

    c, s = 0.3, 3
    kernel = np.zeros((s, 1, s))
    for x in range(s):
        kernel[x, 0, (x + 1) % s] = 1.0
    chain = MdpModel(states=[f"s{i}" for i in range(s)], actions=["a0"],
                     kernel=kernel, weights=np.full((s, 1, s), math.exp(c)))
    det = estimate_growth(chain, Policy.deterministic([0] * s, n_actions=1),
                          n=40, paths=100, batches=4)
    exact = abs(det.point - c) <= 1e-14 and det.stderr == 0.0
    ok = worst_z <= 3.0 and exact
    _report(10, ok, f"five seeded models within {worst_z:.2f} stderr of log rho; "
                    f"deterministic chain reproduces c (defect "
                    f"{abs(det.point - c):.1e}, stderr {det.stderr})")


def test_criterion_11_variational_maximizer():
    models, sols, _ = _positive_suite()
    worst_below = 0.0
    worst_above = -math.inf
    worst_res = 0.0
    for i in range(10):
        model, sol = models[i], sols[i]
        cert = maximize(model)
        worst_below = max(worst_below, sol.log_rho - cert.primal_lower)
        worst_above = max(worst_above, cert.primal_lower - sol.log_rho)
        worst_res = max(worst_res, stationarity_residual(cert.eta)[1])
    ok = worst_below <= 1e-4 and worst_above <= 1e-9 and worst_res <= 1e-6
    _report(11, ok, f"smoothed-dual Newton at its defaults on 10 models: at most "
                    f"{worst_below:.2e} below log rho, never more than "
                    f"{worst_above:.2e} above, residual <= {worst_res:.2e}")
