"""Principal-eigenvalue solver for the controlled growth operator.

The one-step operator of a model is

    (T f)(x) = max_u sum_y kernel(x, u, y) * weights(x, u, y) * f(y),

a monotone, positively one-homogeneous map on the nonnegative cone.  Its
principal eigenpair ``T psi = rho * psi`` (``rho > 0``, ``psi`` strictly
positive) carries the optimal growth rate ``lambda = log(rho)`` of expected
multiplicative reward.

Every iterate is certified by Collatz-Wielandt ratio bounds

    min_x (T f)(x) / f(x)  <=  rho  <=  max_x (T f)(x) / f(x),

and the iteration stops when the bracket's relative width drops below the
tolerance.  The update uses the shifted map ``f <- (T f + f) / ||.||``: the
shift leaves the eigenvector (and the ratio bounds, up to the +1 offset)
unchanged while suppressing the period-2 oscillation that pure power steps
exhibit on periodic gain structures, so no separate restart logic is needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NoConvergence,
    NonpositiveF,
    ReducibleGain,
    TooManyPolicies,
)
from .model import EpsilonParams, MdpModel, Policy, _strongly_connected, epsilon_model, validate

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class EigenSolution:
    """Certified principal eigenpair.

    ``psi`` is normalized to sup-norm 1 with all entries positive;
    ``cw_lower <= rho <= cw_upper`` always holds and ``rho`` is the
    geometric mean of the final bracket.  ``regularized`` marks solutions
    obtained on the epsilon-smoothed companion model (``epsilon`` gives the
    smoothing used).
    """

    rho: float
    log_rho: float
    psi: np.ndarray
    v_star: Policy
    cw_lower: float
    cw_upper: float
    iterations: int
    converged: bool
    regularized: bool = False
    epsilon: float = 0.0


def apply_T(model: MdpModel, f: np.ndarray) -> tuple[np.ndarray, Policy]:
    """One operator application; also returns the argmax (greedy) policy.

    Action ties break to the lowest action index.  ``f`` must be finite;
    positivity is only needed by callers that interpret ratio bounds.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (model.n_states,):
        raise NonpositiveF(f"f must be a vector of length {model.n_states}")
    if not np.all(np.isfinite(f)):
        raise NonpositiveF("f must be finite")
    per_action = model.gain @ f
    choices = np.argmax(per_action, axis=1)
    policy = Policy.deterministic(choices, model.n_actions)
    return per_action[np.arange(model.n_states), choices], policy


def apply_Tn(model: MdpModel, f: np.ndarray, n: int) -> np.ndarray:
    """n-fold operator application (the n-step growth semigroup)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.asarray(f, dtype=float)
    for _ in range(n):
        out, _ = apply_T(model, out)
    return out


def cw_bounds(model: MdpModel, f: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bracket ``[min_x Tf/f, max_x Tf/f]`` at a positive f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (model.n_states,) or not np.all(np.isfinite(f)) or np.any(f <= 0):
        raise NonpositiveF("f must be strictly positive, finite, of length n_states")
    tf, _ = apply_T(model, f)
    ratios = tf / f
    return float(ratios.min()), float(ratios.max())


def _certified_iteration(step, s: int, tol: float, max_iter: int):
    """Shared damped power loop.

    ``step(f)`` returns ``T f``.  Returns ``(f, Tf, lower, upper, iters,
    converged)`` where the bracket is the Collatz-Wielandt one at the
    returned ``f``.
    """
    f = np.ones(s)
    tf = step(f)
    lo = hi = float("nan")
    for k in range(1, max_iter + 1):
        ratios = tf / f
        lo = float(ratios.min())
        hi = float(ratios.max())
        if lo > 0 and hi - lo <= tol * lo:
            return f, tf, lo, hi, k, True
        g = tf + f
        f = g / g.max()
        tf = step(f)
    return f, tf, lo, hi, max_iter, False


def _solve_direct(model: MdpModel, tol: float, max_iter: int) -> EigenSolution:
    gain = model.gain

    def step(f):
        return (gain @ f).max(axis=1)

    f, tf, lo, hi, iters, ok = _certified_iteration(step, model.n_states, tol, max_iter)
    rho = float(np.sqrt(lo * hi)) if lo > 0 else 0.0
    _, policy = apply_T(model, f)
    sol = EigenSolution(
        rho=rho,
        log_rho=float(np.log(rho)) if rho > 0 else float("-inf"),
        psi=f,
        v_star=policy,
        cw_lower=lo,
        cw_upper=hi,
        iterations=iters,
        converged=ok,
    )
    if not ok:
        raise NoConvergence(
            f"eigen iteration did not reach tolerance {tol:g} within {max_iter} "
            f"iterations (bracket [{lo:g}, {hi:g}])",
            iterations=iters,
            bracket=(lo, hi),
            solution=sol,
        )
    return sol


def solve_eigen(
    model: MdpModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    eps_fallback: float | None = None,
) -> EigenSolution:
    """Certified principal eigenpair of the growth operator.

    Models with strictly positive kernel and weights are solved directly.
    When either positivity fails and ``eps_fallback`` is given, the
    epsilon-smoothed companion model (see :func:`model.epsilon_model`) is
    solved instead and the result is flagged ``regularized`` -- its rate
    upper-bounds the original one within O(epsilon).  Without a fallback the
    solver still runs whenever the gain graph is strongly connected and
    refuses (:class:`ReducibleGain`) otherwise, since the ratio bracket
    cannot close on a reducible gain structure.  A non-finite or
    non-positive ``tol`` or a ``max_iter`` below 1 is a ``ValueError``.
    """
    report = validate(model)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if eps_fallback is not None and not (eps_fallback > 0):
        raise ValueError("eps_fallback must be > 0 when given")
    if not (report.a0_plus and report.a1_plus):
        if eps_fallback is not None:
            smoothed = epsilon_model(model, EpsilonParams(epsilon=eps_fallback))
            sol = _solve_direct(smoothed, tol, max_iter)
            return replace(sol, regularized=True, epsilon=float(eps_fallback))
        if not report.gain_irreducible or report.dead_states:
            raise ReducibleGain(
                "gain graph is not strongly connected; pass eps_fallback to solve "
                "the smoothed companion model instead"
            )
    return _solve_direct(model, tol, max_iter)


def _policy_matrices(model: MdpModel, choices: np.ndarray) -> np.ndarray:
    """Stack of per-policy gain matrices M[p, x, y] for choice rows p."""
    s = model.n_states
    return model.gain[np.arange(s)[None, :], choices, :]


def _linear_power_batch(mats: np.ndarray, tol: float, max_iter: int):
    """Certified damped power iteration on a stack of nonnegative matrices.

    Returns ``(gains, iters, converged)`` with ``gains[p] = log rho(M_p)``
    (geometric mean of the final bracket); unconverged entries keep their
    last bracket's value with ``converged[p] = False``.
    """
    p, s, _ = mats.shape
    f = np.ones((p, s))
    gains = np.full(p, np.nan)
    iters = np.zeros(p, dtype=int)
    done = np.zeros(p, dtype=bool)
    active = np.arange(p)
    for k in range(1, max_iter + 1):
        tf = np.einsum("pxy,py->px", mats[active], f[active])
        ratios = tf / f[active]
        lo = ratios.min(axis=1)
        hi = ratios.max(axis=1)
        hit = (lo > 0) & (hi - lo <= tol * lo)
        if hit.any():
            idx = active[hit]
            gains[idx] = 0.5 * (np.log(lo[hit]) + np.log(hi[hit]))
            iters[idx] = k
            done[idx] = True
        if done.all():
            return gains, iters, done
        keep = ~hit
        g = tf[keep] + f[active[keep]]
        f[active[keep]] = g / g.max(axis=1, keepdims=True)
        active = active[keep]
    # leftovers: best-effort value from the last bracket
    tf = np.einsum("pxy,py->px", mats[active], f[active])
    ratios = tf / f[active]
    lo = np.maximum(ratios.min(axis=1), 1e-300)
    hi = ratios.max(axis=1)
    gains[active] = 0.5 * (np.log(lo) + np.log(hi))
    iters[active] = max_iter
    return gains, iters, done


def fixed_policy_gain(
    model: MdpModel,
    phi: Policy,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Growth rate ``log rho(M_phi)`` of one stationary policy.

    ``M_phi(x, y) = sum_u phi(u|x) kernel(x,u,y) weights(x,u,y)`` is linear,
    so this is a certified power iteration on a single matrix.  Requires
    ``M_phi`` irreducible; callers holding a reducible policy should perturb
    it or smooth the model first.
    """
    mat = np.einsum("xu,xuy->xy", phi.phi, model.gain)
    if not _strongly_connected(mat > 0):
        raise ReducibleGain("policy gain matrix is not irreducible")
    gains, iters, done = _linear_power_batch(mat[None], tol, max_iter)
    if not done[0]:
        raise NoConvergence(
            f"policy gain iteration did not converge within {max_iter} iterations",
            iterations=int(iters[0]),
        )
    return float(gains[0])


def enumerate_policy_gains(
    model: MdpModel,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    batch: int = 4096,
):
    """Exhaustive sweep of all deterministic stationary policies.

    Returns ``(best_policy, best_gain, table)`` where ``table`` is a list of
    ``(choices_tuple, gain_or_None)`` rows in lexicographic order of the
    per-state action choices.  Policies whose gain matrix is reducible get a
    ``None`` gain (the certified iteration cannot bracket them) and are
    skipped for the maximum; ties go to the lexicographically first policy.
    """
    s, a = model.n_states, model.n_actions
    total = a**s
    if total > cap:
        raise TooManyPolicies(f"{total} deterministic policies exceed cap {cap}")
    gain_rows_positive = (model.gain > 0).all(axis=2)

    table: list[tuple[tuple[int, ...], float | None]] = []
    best_gain = -np.inf
    best_choices: tuple[int, ...] | None = None
    all_choices = itertools.product(range(a), repeat=s)
    while True:
        chunk = list(itertools.islice(all_choices, batch))
        if not chunk:
            break
        choices = np.array(chunk, dtype=int)
        usable = np.ones(len(chunk), dtype=bool)
        if not gain_rows_positive.all():
            full = gain_rows_positive[np.arange(s)[None, :], choices].all(axis=1)
            mats_all = _policy_matrices(model, choices)
            for i in np.flatnonzero(~full):
                usable[i] = _strongly_connected(mats_all[i] > 0)
            mats = mats_all[usable]
        else:
            mats = _policy_matrices(model, choices)
        gains = np.full(len(chunk), np.nan)
        if mats.shape[0]:
            got, _, done = _linear_power_batch(mats, tol, max_iter)
            got[~done] = np.nan
            gains[usable] = got
        for row, g in zip(chunk, gains):
            value = None if np.isnan(g) else float(g)
            table.append((tuple(row), value))
            if value is not None and value > best_gain:
                best_gain = value
                best_choices = tuple(row)
    if best_choices is None:
        raise ReducibleGain("every deterministic policy has a reducible gain matrix")
    best = Policy.deterministic(best_choices, a)
    return best, float(best_gain), table
