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

and is accepted once the bracket's relative width drops below the
tolerance.  ``T`` is solved by a damped power loop on the shifted map
``f <- (T f + f) / ||.||``: the shift leaves the eigenvector (and the ratio
bounds, up to the +1 offset) unchanged while suppressing the period-2
oscillation that pure power steps exhibit on periodic gain structures.  The
loop converges at the rate of the spectral gap, so a slowly mixing model
whose bracket is still open after ``_POWER_STEPS`` damped steps goes on with
shifted inverse steps on the greedy policy (Noda's iteration for nonnegative
matrices, with the greedy choice of Howard and Matheson's policy iteration),
one dense linear solve each.  The damped loop then goes on from their last
vector with the remaining budget, so the bracket of ``T`` stays the only
certificate.  A
fixed policy's linear gain matrix is solved directly: its Perron vector from
an eigendecomposition is certified by the same bracket, and the power loop
only finishes the rare matrices whose bracket there is still too wide.
:func:`epsilon_sweep` solves the epsilon-smoothed companions
(:func:`model.epsilon_model`) along a decreasing grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NonpositiveF,
    ReducibleGain,
    TooManyPolicies,
)
from .model import MdpModel, Policy, _strongly_connected, epsilon_model, validate

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
_POLICY_BATCH = 4096  # policies per batched Perron solve in enumerate_policy_gains
_POWER_STEPS = 256  # damped steps in solve_eigen before the shifted inverse steps


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
    tf, _ = apply_T(model, f)
    ratios = tf / f
    return float(ratios.min()), float(ratios.max())


def _certified_iteration(step, f: np.ndarray, tol: float, max_iter: int):
    """The damped power loop, started at the positive vector ``f``.

    ``step(f)`` returns ``T f``.  The shift ``+ f`` suits ``rho`` near 1, so
    unless the bracket at ``f`` overlaps [1/2, 2] the loop runs on the exact
    rescaling ``2**-k T`` with ``k`` taken from that bracket.  Returns ``(f,
    rho, log_rho, lower, upper, iters, converged)``, the Collatz-Wielandt
    bracket at the returned ``f`` mapped back to the scale of ``T``.
    """
    tf = step(f)
    ratios = tf / f
    lo, hi = float(ratios.min()), float(ratios.max())
    k = 0
    if 0 < hi < math.inf and not (lo <= 2 and hi >= 0.5):
        k = round(math.log2(hi) if lo <= 0 else (math.log2(lo) + math.log2(hi)) / 2)
        unscaled = step
        tf = np.ldexp(tf, -k)

        def step(g):
            return np.ldexp(unscaled(g), -k)

    for iters in range(1, max_iter + 1):
        ratios = tf / f
        lo = float(ratios.min())
        hi = float(ratios.max())
        if ok := lo > 0 and hi - lo <= tol * lo:
            break
        g = tf + f
        f = g / g.max()
        tf = step(f)
    rho = float(np.sqrt(lo * hi)) if lo > 0 else 0.0
    log_rho = float(np.log(rho)) + k * math.log(2) if rho > 0 else float("-inf")
    return f, math.ldexp(rho, k), log_rho, math.ldexp(lo, k), math.ldexp(hi, k), iters, ok


def _inverse_steps(gain: np.ndarray, f: np.ndarray, tol: float, budget: int):
    """Shifted inverse steps on the greedy policy of ``T``, from the positive ``f``.

    Each step takes the greedy gain matrix ``M`` at ``f`` and the upper bound
    ``sigma = max_x (T f)(x) / f(x) >= rho(M)``, so ``(sigma I - M)^-1 = sum_k
    M^k / sigma^(k+1)`` is nonnegative and ``f <- (I - M / sigma)^-1 f``,
    rescaled to sup-norm 1, stays positive also when ``M`` is reducible (Noda,
    Numer. Math. 17, 1971).  Stops once the bracket of ``T`` at ``f`` closes,
    after ``budget`` steps, or at the first step that fails: a singular system,
    a solution that is not finite and positive, or a lower bracket end ``lo``
    that does not rise.  In exact arithmetic ``lo`` cannot fall, since
    ``y >= f / (sigma - lo)`` gives ``T y / y >= lo``, while ``sigma`` can rise
    at a step where the greedy policy switches.  Returns ``(f, steps)``.
    """
    s = len(f)
    rows = np.arange(s)
    last = -math.inf
    for steps in range(budget):
        per_action = gain @ f
        choices = per_action.argmax(axis=1)
        ratios = per_action[rows, choices] / f
        lo, sigma = ratios.min(), ratios.max()
        if (lo > 0 and sigma - lo <= tol * lo) or not (sigma > 0 and lo > last):
            return f, steps
        try:
            y = np.linalg.solve(np.eye(s) - gain[rows, choices] / sigma, f)
        except np.linalg.LinAlgError:
            return f, steps
        if not (np.isfinite(y).all() and (y > 0).all()):
            return f, steps
        f, last = y / y.max(), lo
    return f, budget


def _solve_direct(model: MdpModel, tol: float, max_iter: int,
                  epsilon: float = 0.0) -> EigenSolution:
    gain = model.gain

    def step(f):
        return (gain @ f).max(axis=1)

    f, rho, log_rho, lo, hi, iters, ok = _certified_iteration(
        step, np.ones(model.n_states), tol, min(max_iter, _POWER_STEPS)
    )
    if not ok and iters < max_iter:  # slow mixing: the bracket of T stays the certificate
        f, inverse = _inverse_steps(gain, f, tol, max_iter - iters - 1)
        f, rho, log_rho, lo, hi, more, ok = _certified_iteration(
            step, f, tol, max_iter - iters - inverse
        )
        iters += inverse + more
    _, policy = apply_T(model, f)
    sol = EigenSolution(
        rho=rho,
        log_rho=log_rho,
        psi=f,
        v_star=policy,
        cw_lower=lo,
        cw_upper=hi,
        iterations=iters,
        converged=ok,
        epsilon=epsilon,
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
    solved instead and the result, also one carried by :class:`NoConvergence`,
    records that ``epsilon`` (``regularized``) -- its rate upper-bounds the
    original one within O(epsilon).  :func:`variational.certificate_from_eigen`
    takes the original model and certifies against the companion itself.
    Without a fallback the solver still runs whenever the gain graph is
    strongly connected and refuses (:class:`ReducibleGain`) otherwise, since
    the ratio bracket cannot close on a reducible gain structure.  A
    non-finite or non-positive ``tol`` or a ``max_iter`` below 1 is a
    ``ValueError``.

    The damped loop runs at most ``_POWER_STEPS`` (256) steps; a bracket
    still open then goes to shifted inverse steps on the greedy policy, and
    the damped loop resumes from their last vector to check or finish it.
    ``iterations`` counts damped steps plus inverse steps, and ``max_iter``
    caps their sum.
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
            eps = float(eps_fallback)
            return _solve_direct(epsilon_model(model, eps), tol, max_iter, eps)
        if not report.gain_irreducible or report.dead_states:
            raise ReducibleGain(
                "gain graph is not strongly connected; pass eps_fallback to solve "
                "the smoothed companion model instead"
            )
    return _solve_direct(model, tol, max_iter)


def _perron_gains(mats: np.ndarray, tol: float, max_iter: int):
    """Certified ``log rho(M_p)`` for a stack of irreducible nonnegative matrices.

    The modulus of the top eigenvector of each ``M_p`` is its Perron vector,
    also when a periodic ``M_p`` has several eigenvalues of top modulus.
    Matrices whose bracket there is wider than ``tol`` go on in the damped
    loop from that vector (from ones if it has a zero entry).  Returns
    ``(gains, converged)``, each gain the log of its bracket's geometric mean.
    """
    if not (tol > 0 and math.isfinite(tol)) or max_iter < 1:
        raise ValueError("tol must be finite and > 0, and max_iter >= 1")
    vals, vecs = np.linalg.eig(mats)
    top = np.abs(vals).argmax(axis=1)
    f = np.abs(np.take_along_axis(vecs, top[:, None, None], axis=2)[:, :, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        f /= f.max(axis=1, keepdims=True)
        f[~(f > 0).all(axis=1)] = 1.0
        ratios = np.einsum("pxy,py->px", mats, f) / f
        lo, hi = ratios.min(axis=1), ratios.max(axis=1)
        gains = 0.5 * (np.log(lo) + np.log(hi))
    done = (lo > 0) & (hi - lo <= tol * lo)
    for p in np.flatnonzero(~done):
        _, _, gains[p], _, _, _, done[p] = _certified_iteration(
            lambda g, m=mats[p]: m @ g, f[p], tol, max_iter
        )
    return gains, done


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
    it or smooth the model first.  A non-finite or non-positive ``tol`` or a
    ``max_iter`` below 1 is a ``ValueError``, here and in
    :func:`enumerate_policy_gains`.
    """
    mat = np.einsum("xu,xuy->xy", phi.phi, model.gain)
    if not _strongly_connected(mat > 0):
        raise ReducibleGain("policy gain matrix is not irreducible")
    gains, done = _perron_gains(mat[None], tol, max_iter)
    if not done[0]:
        raise NoConvergence(
            f"policy gain iteration did not converge within {max_iter} iterations",
            iterations=max_iter,
        )
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
            got, done = _perron_gains(mats[usable], tol, max_iter)
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
    lambda_eps: float | None
    converged: bool
    iterations: int


def epsilon_sweep(model: MdpModel, grid) -> list[SweepPoint]:
    """Growth rates of the smoothed companions along a decreasing epsilon grid.

    Grid points where the solver fails are marked rather than aborting the
    sweep.  The successful points are checked to be non-increasing as
    epsilon decreases (within 1e-9 slack), which is a structural property of
    the smoothing.
    """
    grid = [float(e) for e in grid]
    if not grid or any(e <= 0 for e in grid):
        raise ValueError("grid must be non-empty with strictly positive entries")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    points: list[SweepPoint] = []
    for eps in grid:
        try:
            sol = solve_eigen(epsilon_model(model, eps))
            points.append(SweepPoint(eps, sol.log_rho, True, sol.iterations))
        except NoConvergence as exc:
            lam = exc.solution.log_rho if exc.solution is not None else None
            points.append(SweepPoint(eps, lam, False, exc.iterations))
    good = [p for p in points if p.converged and p.lambda_eps is not None]
    for a, b in zip(good, good[1:]):
        if b.lambda_eps > a.lambda_eps + 1e-9:
            raise RuntimeError(
                f"smoothed rate increased from eps={a.epsilon:g} to eps={b.epsilon:g}; "
                "solver tolerances are inconsistent"
            )
    return points
