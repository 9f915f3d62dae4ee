"""Principal-eigenvalue solver for the controlled growth operator.

The one-step operator of a model is

    (T f)(x) = max_u sum_y kernel(x, u, y) * weights(x, u, y) * f(y),

a monotone, positively one-homogeneous map on the nonnegative cone.  Its
principal eigenpair ``T psi = rho * psi`` (``rho > 0``, ``psi`` strictly
positive) carries the optimal growth rate ``lambda = log(rho)`` of expected
multiplicative reward.

Every answer is certified by the Collatz-Wielandt ratio bounds, valid at
any strictly positive f,

    min_x (T f)(x) / f(x)  <=  rho  <=  max_x (T f)(x) / f(x),

and is accepted once the bracket's relative width drops below the tolerance.
One loop (:func:`_certified_iteration`) closes it, from the all-ones vector:
damped power steps ``f <- (T f + f) / ||.||``, whose shift keeps the
eigenvector while suppressing the period-2 oscillation of pure power steps on
periodic gain structures, and, once ``_POWER_STEPS`` of them leave a slowly
mixing bracket open, shifted inverse steps on the greedy policy (Noda's
iteration, with the greedy choice of Howard and Matheson's policy iteration),
one dense linear solve each.  It takes the bracket once per iteration,
unscaled; ``2**-k`` from it scales only the damped step and the rate.  A fixed
policy's linear gain matrix is solved directly: its Perron vector from an
eigendecomposition is certified by the same bracket, and the loop solves the
rare matrices whose bracket there is still too wide.  :func:`epsilon_sweep`
solves the epsilon-smoothed companions (:func:`model.epsilon_model`) along a
decreasing grid.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, NonpositiveF, ReducibleGain, TooManyPolicies
from .model import (MdpModel, Policy, _check_policy, _check_solvable, _strongly_connected,
                    epsilon_model)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
_POLICY_BATCH = 4096  # policies per batched Perron solve in enumerate_policy_gains
_POWER_STEPS = 256  # damped steps before the shifted inverse steps


@dataclass(frozen=True)
class EigenSolution:
    """Certified principal eigenpair.

    ``psi`` is normalized to sup-norm 1 with all entries positive;
    ``cw_lower <= rho <= cw_upper`` always holds and ``rho`` is the
    geometric mean of the final bracket.  A positive ``epsilon`` marks a
    solution of the epsilon-smoothed companion model with that smoothing
    (``regularized``).
    """

    rho: float
    log_rho: float
    psi: np.ndarray
    v_star: Policy
    cw_lower: float
    cw_upper: float
    iterations: int
    converged: bool
    epsilon: float = 0.0

    @property
    def regularized(self) -> bool:
        return self.epsilon > 0


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
    with np.errstate(over="ignore"):  # a ratio past the float range is +inf, a vacuous bound
        ratios = (model.gain @ f).max(axis=1) / f
    return float(ratios.min()), float(ratios.max())


def _inverse_step(gain: np.ndarray, f: np.ndarray, choices: np.ndarray, sigma: float):
    """One shifted inverse step ``y = (I - M / sigma)^-1 f`` from the positive ``f``.

    ``M`` is the gain matrix of ``choices``.  For ``sigma >= rho(M)``, ``(sigma I
    - M)^-1 = sum_k M^k / sigma^(k+1)`` is nonnegative, so ``y`` stays positive
    also when ``M`` is reducible (Noda, Numer. Math. 17, 1971).  For the greedy
    ``choices`` and ``sigma = max_x (T f)(x) / f(x)``, ``y >= f / (sigma - lo)``
    gives ``T y / y >= lo``: the lower bracket end cannot fall, while ``sigma``
    can rise where the greedy policy switches.  Returns ``y`` at sup-norm 1, or
    ``None`` for a singular system or a ``y`` that is not finite and positive.
    """
    s = len(f)
    try:
        y = np.linalg.solve(np.eye(s) - gain[np.arange(s), choices] / sigma, f)
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(y).all() and (y > 0).all()):
        return None
    return y / y.max()


def _certified_iteration(gain: np.ndarray, tol: float,
                         max_iter: int) -> tuple[EigenSolution, str | None]:
    """The certified loop on ``(T f)(x) = max_u gain[x, u, :] @ f``, from ``f = 1``.

    Each iteration applies ``T`` once and takes the bracket at ``f`` once,
    unscaled, for the stop test and the report.  It stops when the bracket
    closes, after ``max_iter`` iterations, before a damped step that would
    underflow an entry of ``f`` to 0, or at an ``f`` that repeats bitwise, so
    ``psi`` is always the vector its bracket belongs to.  Damped steps run on
    ``2**-k T``, with ``k`` taken from the bracket unless it overlaps [1/2, 2],
    since the shift ``+ f`` suits ``rho`` near 1; ``2**-k`` scales only those
    and the final bracket, for the rate.  After ``_POWER_STEPS`` iterations come
    shifted inverse steps on the greedy policy, with ``k`` re-taken at each
    check, until one fails or does not raise the lower end; then damped steps.
    From there the next ``f`` depends on ``f`` alone, so a repeated ``f`` means
    a cycle that never closes the bracket: Brent's cycle search keeps the ``f``
    of the last power-of-two iteration and stops at the first one equal to it.
    Returns the solution and, when it did not converge, why the loop stopped.
    """
    f = np.ones(gain.shape[0])
    k, last = 0, -math.inf  # last: lo at the last inverse step, None once they stop
    mark = None  # the f of the last power-of-two iteration after the inverse steps
    for iters in range(1, max_iter + 1):
        per_action = gain @ f
        tf = per_action.max(axis=1)
        with np.errstate(over="ignore"):  # a ratio past the float range is +inf
            ratios = tf / f
        lo, sigma = float(ratios.min()), float(ratios.max())
        inverse = iters > _POWER_STEPS and last is not None
        if iters == 1 or inverse:  # the scale from the bracket
            k = 0
            if 0 < sigma < math.inf and not (lo <= 2 and sigma >= 0.5):
                k = round(math.log2(sigma) if lo <= 0 else (math.log2(lo) + math.log2(sigma)) / 2)
        if (ok := lo > 0 and sigma - lo <= tol * lo) or iters == max_iter:
            why = None if ok else f"within {max_iter} iterations"
            break
        if last is None:
            if mark is not None and (f == mark).all():
                why = f"after {iters} iterations: psi repeats bitwise without closing the bracket"
                break
            if iters & (iters - 1) == 0:
                mark = f
        if inverse:
            y = None
            if sigma > 0 and lo > last:
                y = _inverse_step(gain, f, per_action.argmax(axis=1), sigma)
            if y is not None:
                f, last = y, lo
                continue
            last = None
        g = (np.ldexp(tf, -k) if k else tf) + f
        g /= g.max()
        if not g.min() > 0:
            why = f"after {iters} iterations: the next step underflows an entry of psi to 0"
            break
        f = g
    with np.errstate(over="ignore"):  # an end past the float range is +inf, as a ratio is
        lo_k, hi_k = np.ldexp((lo, sigma), -k).tolist()
    rho = 0.0
    if lo_k > 0:
        e = 0
        if not sys.float_info.min <= lo_k * hi_k < math.inf:
            # past about 1e154 (or below 1e-154) with k = 0 the product leaves the
            # normal range: take it at the scale 4**-e, so rho stays in the bracket
            e = (math.frexp(lo_k)[1] + math.frexp(hi_k)[1]) // 2
        rho = math.ldexp(math.sqrt(math.ldexp(lo_k, -e) * math.ldexp(hi_k, -e)), e)
    log_rho = float(np.log(rho)) + k * math.log(2) if rho > 0 else -math.inf
    policy = Policy.deterministic(per_action.argmax(axis=1), gain.shape[1])
    return EigenSolution(rho=math.ldexp(rho, k), log_rho=log_rho, psi=f, v_star=policy,
                         cw_lower=lo, cw_upper=sigma,
                         iterations=iters, converged=ok), why


def solve_eigen(
    model: MdpModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    eps_fallback: float | None = None,
) -> EigenSolution:
    """Certified principal eigenpair of the growth operator.

    A gain graph that is not strongly connected, or has a dead state, is
    refused (:class:`ReducibleGain`) by :func:`model._check_solvable`, as in
    :func:`variational.maximize`: the ratio bracket cannot close there.  With
    ``eps_fallback``, exactly such a model is smoothed: its epsilon-smoothed
    companion (:func:`model.epsilon_model`) is solved, and the result, also
    one carried by :class:`NoConvergence`, records that ``epsilon``
    (``regularized``); its rate upper-bounds the original one within
    O(epsilon).  :func:`variational.certificate_from_eigen` certifies it
    against the companion.  A non-finite or non-positive ``tol`` or a
    ``max_iter`` below 1 is a ``ValueError``.

    The loop starts at the all-ones vector; ``iterations`` counts its bracket
    checks, at most ``max_iter``.  A bracket still open then, or a damped step
    that would underflow an entry of ``psi`` to 0, raises
    :class:`NoConvergence` carrying the last positive ``psi`` and its bracket.
    """
    _check_budget(tol, max_iter)
    if eps_fallback is not None and not (0 < eps_fallback < math.inf):
        raise ValueError("eps_fallback must be finite and > 0 when given")
    epsilon = 0.0
    try:
        _check_solvable(model)
    except ReducibleGain:
        if eps_fallback is None:
            raise
        epsilon = float(eps_fallback)
        model = epsilon_model(model, epsilon)
    sol, why = _certified_iteration(model.gain, tol, max_iter)
    sol = replace(sol, epsilon=epsilon)
    if not sol.converged:
        lo, hi = sol.cw_lower, sol.cw_upper
        raise NoConvergence(f"eigen iteration did not reach tolerance {tol:g} {why} "
                            f"(bracket [{lo:g}, {hi:g}])",
                            iterations=sol.iterations, bracket=(lo, hi), solution=sol)
    return sol


def _check_budget(tol: float, max_iter: int) -> None:
    """``ValueError`` unless ``tol`` is finite and > 0 and ``max_iter`` is at least 1."""
    if not (tol > 0 and math.isfinite(tol)) or max_iter < 1:
        raise ValueError("tol must be finite and > 0, and max_iter >= 1")


def _perron_gains(mats: np.ndarray, tol: float, max_iter: int):
    """Certified ``log rho(M_p)`` for a stack of irreducible nonnegative matrices.

    The modulus of the top eigenvector of each ``M_p`` is its Perron vector,
    also when a periodic ``M_p`` has several eigenvalues of top modulus.
    Matrices whose bracket there is wider than ``tol``, or undefined at a zero
    entry, are solved by the certified loop instead.  Returns
    ``(gains, converged, stops)``, each gain the log of its bracket's
    geometric mean, and ``stops`` mapping each matrix the loop ran on to its
    ``(solution, why)``.
    """
    vals, vecs = np.linalg.eig(mats)
    top = np.abs(vals).argmax(axis=1)
    f = np.abs(np.take_along_axis(vecs, top[:, None, None], axis=2)[:, :, 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.einsum("pxy,py->px", mats, f) / f
        lo, hi = ratios.min(axis=1), ratios.max(axis=1)
        gains = 0.5 * (np.log(lo) + np.log(hi))
    done = (lo > 0) & (hi - lo <= tol * lo)
    stops = {}
    for p in np.flatnonzero(~done):
        sol, _ = stops[p] = _certified_iteration(mats[p][:, None, :], tol, max_iter)
        gains[p], done[p] = sol.log_rho, sol.converged
    return gains, done, stops


def fixed_policy_gain(
    model: MdpModel,
    phi: Policy,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Growth rate ``log rho(M_phi)`` of one stationary policy.

    ``M_phi(x, y) = sum_u phi(u|x) kernel(x,u,y) weights(x,u,y)`` is linear,
    so this is a direct Perron solve of a single matrix, certified by its
    Collatz-Wielandt bracket (see :func:`_perron_gains`).  Requires
    ``M_phi`` irreducible; callers holding a reducible policy should perturb
    it or smooth the model first.  A bracket the loop leaves open raises
    :class:`NoConvergence` with the loop's reason and iteration count.  A
    non-finite or non-positive ``tol`` or a ``max_iter`` below 1 is a
    ``ValueError``, here and in :func:`enumerate_policy_gains`.
    """
    _check_budget(tol, max_iter)
    _check_policy(model, phi)
    mat = np.einsum("xu,xuy->xy", phi.phi, model.gain)
    if not _strongly_connected(mat > 0):
        raise ReducibleGain("policy gain matrix is not irreducible")
    gains, done, stops = _perron_gains(mat[None], tol, max_iter)
    if not done[0]:
        sol, why = stops[0]
        raise NoConvergence(f"policy gain iteration did not converge {why}",
                            iterations=sol.iterations)
    return float(gains[0])


def enumerate_policy_gains(
    model: MdpModel,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Exhaustive sweep of all deterministic stationary policies.

    Returns ``(best_policy, best_gain, table)`` where ``table`` is a list of
    ``(choices_tuple, gain_or_None)`` rows in lexicographic order of the
    per-state action choices, each gain a batched direct Perron solve (see
    :func:`fixed_policy_gain`).  Policies whose gain matrix is reducible get
    a ``None`` gain (no positive vector closes their bracket) and are skipped
    for the maximum; ties go to the lexicographically first policy.
    """
    _check_budget(tol, max_iter)
    s, a = model.n_states, model.n_actions
    total = a**s
    if total > cap:
        raise TooManyPolicies(f"{total} deterministic policies exceed cap {cap}")
    gain_rows_positive = (model.gain > 0).all(axis=2)

    table: list[tuple[tuple[int, ...], float | None]] = []
    all_choices = itertools.product(range(a), repeat=s)
    while chunk := list(itertools.islice(all_choices, _POLICY_BATCH)):
        choices = np.array(chunk, dtype=int)
        mats = model.gain[np.arange(s), choices]
        usable = gain_rows_positive[np.arange(s), choices].all(axis=1)
        for i in np.flatnonzero(~usable):
            usable[i] = _strongly_connected(mats[i] > 0)
        gains = np.full(len(chunk), np.nan)
        if usable.any():
            got, done, _ = _perron_gains(mats[usable], tol, max_iter)
            gains[usable] = np.where(done, got, np.nan)
        table += [(row, None if np.isnan(g) else float(g)) for row, g in zip(chunk, gains)]
    scored = [row for row in table if row[1] is not None]
    if not scored:
        raise ReducibleGain("every deterministic policy has a reducible gain matrix")
    best_choices, best_gain = max(scored, key=lambda row: row[1])  # first of ties
    return Policy.deterministic(best_choices, a), best_gain, table


@dataclass(frozen=True)
class SweepPoint:
    """One epsilon grid point of :func:`epsilon_sweep`."""

    epsilon: float
    lambda_eps: float
    converged: bool
    iterations: int


def epsilon_sweep(model: MdpModel, grid) -> list[SweepPoint]:
    """Growth rates of the smoothed companions along a decreasing epsilon grid.

    A grid point where the solver stops is marked unconverged, with the rate
    of its partial solution, rather than aborting the sweep.  The converged
    points are checked to be non-increasing as epsilon decreases (within
    1e-9 slack), which is a structural property of the smoothing; a rise
    raises :class:`NoConvergence`.
    """
    grid = [float(e) for e in grid]
    if not grid or any(not 0 < e < math.inf for e in grid):
        raise ValueError("grid must be non-empty with finite, strictly positive entries")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    points: list[SweepPoint] = []
    for eps in grid:
        try:
            sol = solve_eigen(epsilon_model(model, eps))
            points.append(SweepPoint(eps, sol.log_rho, True, sol.iterations))
        except NoConvergence as exc:
            points.append(SweepPoint(eps, exc.solution.log_rho, False, exc.iterations))
    good = [p for p in points if p.converged]
    for a, b in zip(good, good[1:]):
        if b.lambda_eps > a.lambda_eps + 1e-9:
            raise NoConvergence(
                f"smoothed rate increased from eps={a.epsilon:g} to eps={b.epsilon:g}; "
                "solver tolerances are inconsistent"
            )
    return points
