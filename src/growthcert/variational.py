"""Occupation-measure side of the growth-rate problem.

The growth rate ``log rho`` of a model equals the supremum, over stationary
occupation measures ``eta(x, u, y)`` whose ``y``-marginal matches their
``x``-marginal, of

    Psi0(eta) = - sum_{x,u} eta~(x,u) * D( eta2(.|x,u) || gain(x,u,.) ),

the negative relative entropy of the conditional next-state law against the
*unnormalized* gain row ``kernel * weights``.  This module provides the
objective, feasibility utilities, the attaining measure built from a solved
eigenpair (the psi-twisted chain), an entropic mirror-ascent maximizer with
an augmented-Lagrangian treatment of the stationarity constraint, and the
matching dual upper bound ``max_x [log (T e^g)(x) - g(x)]``.  The module
takes eigensolutions as data and never calls the eigensolver, so the two
routes check each other; a regularized eigensolution is certified against
the epsilon-smoothed companion (:func:`model.epsilon_model`) it solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NoConvergence,
    NotConverged,
    NotDistribution,
    RowSumViolation,
    SingularChain,
    ZeroGainRow,
)
from .model import MdpModel, epsilon_model, validate

MASS_TOL = 1e-12


@dataclass(frozen=True)
class OccupationMeasure:
    """Joint measure ``joint[x, u, y]`` on (state, action, next state).

    Nonnegative with total mass 1 within 1e-12.  Marginals/conditionals are
    exposed as methods; conditional rows with zero mass are returned as
    zeros rather than raising.
    """

    joint: np.ndarray

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=float)
        if joint.ndim != 3 or joint.shape[0] != joint.shape[2]:
            raise NotDistribution("joint must have shape (s, a, s)")
        if not np.all(np.isfinite(joint)) or np.any(joint < 0):
            raise NotDistribution("joint entries must be finite and >= 0")
        if abs(joint.sum() - 1.0) > MASS_TOL:
            raise NotDistribution(f"joint mass {joint.sum()!r} is not 1 within {MASS_TOL:g}")
        joint = joint.copy()
        joint.flags.writeable = False
        object.__setattr__(self, "joint", joint)

    def eta0(self) -> np.ndarray:
        """State marginal (mass of each current state)."""
        return self.joint.sum(axis=(1, 2))

    def eta_tilde(self) -> np.ndarray:
        """(state, action) marginal."""
        return self.joint.sum(axis=2)

    def eta1(self) -> np.ndarray:
        """Conditional action law given the state (zero rows stay zero)."""
        return _conditionals(self.joint)[1]

    def eta2(self) -> np.ndarray:
        """Conditional next-state law given (state, action) (zero rows stay zero)."""
        return _conditionals(self.joint)[2]


def _conditionals(joint: np.ndarray):
    """``(eta~, eta1, eta2)`` of a joint tensor; rows without mass stay zero."""
    etat = joint.sum(axis=2)
    eta0 = etat.sum(axis=1, keepdims=True)
    eta1 = etat / np.where(eta0 > 0, eta0, 1.0)
    eta2 = joint / np.where(etat > 0, etat, 1.0)[:, :, None]
    return etat, eta1, eta2


@dataclass(frozen=True)
class Certificate:
    """Two-sided bracket on the growth rate with explicit witnesses."""

    primal_lower: float
    dual_upper: float
    gap: float
    eta: OccupationMeasure
    g: np.ndarray


def relative_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence D(p || q) in nats; +inf off absolute continuity."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise NotDistribution("p and q must be vectors of equal length")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise NotDistribution(f"{name} must be a probability vector (unit sum within 1e-9)")
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _psi0_raw(gain: np.ndarray, joint: np.ndarray) -> float:
    """Objective on raw arrays; -inf when the measure charges zero-gain steps."""
    sup = joint > 0
    if np.any(sup & (gain == 0)):
        return float("-inf")
    etat = joint.sum(axis=2)
    cond = joint / np.where(etat > 0, etat, 1.0)[:, :, None]
    terms = np.where(
        sup,
        cond * (np.log(np.where(sup, cond, 1.0)) - np.log(np.where(gain > 0, gain, 1.0))),
        0.0,
    )
    return -float(np.einsum("xu,xuy->", etat, terms))


def objective_psi0(model: MdpModel, eta: OccupationMeasure) -> float:
    """Single-divergence objective whose supremum over feasible measures is log rho."""
    joint = eta.joint
    if joint.shape != model.gain.shape:
        raise NotDistribution(
            f"measure shape {joint.shape} does not match model shape {model.gain.shape}"
        )
    return _psi0_raw(model.gain, joint)


def stationarity_residual(eta: OccupationMeasure) -> tuple[np.ndarray, float]:
    """Per-state flow imbalance (next-state marginal minus state marginal)."""
    res = eta.joint.sum(axis=(0, 1)) - eta.joint.sum(axis=(1, 2))
    return res, float(np.abs(res).max())


def _stationary(P: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix."""
    s = P.shape[0]
    A = P.T - np.eye(s)
    A[-1, :] = 1.0
    b = np.zeros(s)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularChain("stationary distribution is not unique") from exc
    if not np.all(np.isfinite(pi)) or np.any(pi < -1e-9):
        raise SingularChain("stationary solve produced an invalid distribution")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    if np.abs(pi @ P - pi).max() > 1e-9:
        raise SingularChain("stationary solve did not satisfy pi P = pi")
    return pi


def _stationary_measure(phi: np.ndarray, eta2: np.ndarray) -> OccupationMeasure:
    """Stationary measure of the chain that draws actions by ``phi``, moves by ``eta2``."""
    P = np.einsum("xu,xuy->xy", phi, eta2)
    pi = _stationary(P)
    return OccupationMeasure(pi[:, None, None] * phi[:, :, None] * eta2)


def _solved_model(model: MdpModel, eig) -> MdpModel:
    """The model ``eig`` is an eigenpair of: ``model``, or its smoothed companion."""
    return epsilon_model(model, eig.epsilon) if eig.regularized else model


def twisted_occupation(model: MdpModel, eig) -> OccupationMeasure:
    """Occupation measure of the psi-twisted optimal chain.

    The twisted kernel ``p*(y|x) = gain(x, v*(x), y) psi(y) / (rho psi(x))``
    is row-stochastic exactly when ``(rho, psi)`` solves the eigenproblem;
    its stationary measure, paired with the greedy policy, attains the
    variational supremum.  ``model`` is the model that was solved; for a
    regularized ``eig`` the twist uses its epsilon-smoothed companion.
    """
    if not eig.converged:
        raise NotConverged("twisted occupation needs a converged eigensolution")
    model = _solved_model(model, eig)
    s, a = model.n_states, model.n_actions
    choices = eig.v_star.choices()
    rows = model.gain[np.arange(s), choices, :]
    P = rows * eig.psi[None, :] / (eig.rho * eig.psi[:, None])
    row_sums = P.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-8:
        raise RowSumViolation(
            "twisted kernel rows deviate from unit sum by "
            f"{np.abs(row_sums - 1.0).max():.3e}; eigensolution is inconsistent "
            "with this model"
        )
    P = P / row_sums[:, None]
    pi = _stationary(P)
    joint = np.zeros((s, a, s))
    joint[np.arange(s), choices, :] = pi[:, None] * P
    return OccupationMeasure(joint)


def random_feasible(model: MdpModel, seed: int) -> OccupationMeasure:
    """Random stationary occupation measure (deterministic in ``seed``).

    Draws random action and next-state conditionals supported on the kernel's
    support, then closes the loop with the induced chain's stationary
    distribution.  Needs a strictly positive kernel so the induced chain is
    irreducible; retries a fresh draw up to 10 times if the stationary solve
    degenerates.
    """
    report = validate(model)
    if not report.a1_plus:
        raise ZeroGainRow("random_feasible requires a strictly positive kernel")
    s, a = model.n_states, model.n_actions
    rng = np.random.default_rng(seed)
    last_exc = None
    for _ in range(10):
        eta1 = rng.gamma(1.0, size=(s, a))
        eta1 /= eta1.sum(axis=1, keepdims=True)
        eta2 = rng.gamma(1.0, size=(s, a, s)) * (model.kernel > 0)
        eta2 /= eta2.sum(axis=2, keepdims=True)
        try:
            return _stationary_measure(eta1, eta2)
        except SingularChain as exc:
            last_exc = exc
    raise SingularChain("no usable draw after 10 attempts") from last_exc


def dual_bound(model: MdpModel, g: np.ndarray) -> float:
    """Upper bound ``max_x [log (T e^g)(x) - g(x)]`` on the growth rate.

    Valid for every finite ``g`` and tight at ``g = log psi``.  States whose
    gain rows are entirely zero make the bound +inf (no finite certificate
    exists through them), which is returned as such.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (model.n_states,) or not np.all(np.isfinite(g)):
        raise NotDistribution(f"g must be a finite vector of length {model.n_states}")
    gain = model.gain
    sup = gain > 0
    vals = np.where(sup, np.log(np.where(sup, gain, 1.0)) + g[None, None, :], -np.inf)
    row_max = vals.max(axis=2)
    dead_rows = ~np.isfinite(row_max)
    safe_max = np.where(dead_rows, 0.0, row_max)
    sums = np.exp(vals - safe_max[:, :, None]).sum(axis=2)
    lse = np.where(
        dead_rows, -np.inf, safe_max + np.log(np.where(dead_rows, 1.0, sums))
    )
    per_state = lse.max(axis=1)
    if np.any(~np.isfinite(per_state)):
        return float("inf")
    return float(np.max(per_state - g))


def _ls_multiplier(joint: np.ndarray, log_gain: np.ndarray) -> np.ndarray:
    """Least-squares multiplier estimate from the current iterate.

    Fits ``g`` (and a free constant) so that the objective gradient
    ``log gain - log eta2 + g[x] - g[y]`` is as uniform as possible on the
    support of the measure; at an optimal measure the fit is exact and the
    constant is the growth rate.
    """
    s = joint.shape[0]
    idx = np.argwhere(joint > 0)
    vals = joint[joint > 0]
    etat = joint.sum(axis=2)
    q = (
        log_gain[idx[:, 0], idx[:, 1], idx[:, 2]]
        - np.log(vals)
        + np.log(etat[idx[:, 0], idx[:, 1]])
    )
    A = np.zeros((len(idx), s + 1))
    A[np.arange(len(idx)), idx[:, 0]] += 1.0
    A[np.arange(len(idx)), idx[:, 2]] -= 1.0
    A[:, s] = -1.0
    w = np.sqrt(vals)
    z, *_ = np.linalg.lstsq(A * w[:, None], -q * w, rcond=None)
    return z[:s]


def _project_feasible(model: MdpModel, joint: np.ndarray) -> OccupationMeasure:
    """Retract a mass-1 tensor onto the stationarity manifold.

    Keeps the action and next-state conditionals and replaces the state
    marginal with the stationary distribution of the induced chain.
    """
    etat, phi, eta2 = _conditionals(joint)
    phi = np.where(etat.sum(axis=1)[:, None] > 0, phi, 1.0 / model.n_actions)
    mask = model.kernel > 0
    eta2 = np.where(etat[:, :, None] > 0, eta2, mask / mask.sum(axis=2, keepdims=True))
    return _stationary_measure(phi, eta2)


def maximize(
    model: MdpModel,
    iters: int = 5000,
    step: float = 0.1,
    penalty: float = 10.0,
    tol: float = 1e-6,
    seed: int = 0,
    init: OccupationMeasure | None = None,
):
    """Entropic mirror ascent of the occupation objective.

    The stationarity constraint is handled by an augmented Lagrangian: inner
    rounds take exponentiated-gradient steps (with halving on merit
    decrease) on the mass simplex, outer rounds update the multiplier
    ``g <- g + penalty * residual``.  After every round the iterate is
    retracted onto the feasible set; the reported value is the best
    retracted objective, so it is always a true lower bound.  Termination
    additionally requires the self-certified duality gap (via the running
    multiplier) to close to ``10 * tol``, which backs the advertised
    near-optimality of converged runs.

    Returns ``(eta_hat, value, residual)``; raises :class:`NoConvergence`
    carrying the same triple when the budget runs out first.  A non-finite
    or non-positive ``step``, ``penalty`` or ``tol``, or ``iters`` below 1,
    is a ``ValueError``.
    """
    for name, value in (("step", step), ("penalty", penalty), ("tol", tol)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    report = validate(model)
    if not (report.a0_plus and report.a1_plus):
        raise ZeroGainRow(
            "maximizer needs strictly positive kernel and weights; smooth the "
            "model first (epsilon_model)"
        )
    start = init if init is not None else random_feasible(model, seed)
    joint = start.joint.copy()
    log_gain = np.log(model.gain)
    g = _ls_multiplier(joint, log_gain)
    inner = 40

    def residual_of(arr):
        return arr.sum(axis=(0, 1)) - arr.sum(axis=(1, 2))

    def merit_of(arr):
        c = residual_of(arr)
        return _psi0_raw(model.gain, arr) - g @ c - 0.5 * penalty * (c @ c)

    best = _project_feasible(model, joint)
    best_value = _psi0_raw(model.gain, best.joint)
    prev_value = best_value

    used = 0
    while used < iters:
        base = merit_of(joint)  # g is fixed within a round; accepted steps carry theirs
        for _ in range(min(inner, iters - used)):
            used += 1
            sup = joint > 0
            etat = joint.sum(axis=2)
            cond_log = np.log(np.where(sup, joint, 1.0)) - np.log(
                np.where(etat > 0, etat, 1.0)
            )[:, :, None]
            c = residual_of(joint)
            h = g + penalty * c
            grad = np.where(
                sup, log_gain - cond_log + h[:, None, None] - h[None, None, :], 0.0
            )
            shift = grad.max()
            alpha = step
            for _ in range(25):
                cand = joint * np.where(sup, np.exp(alpha * (grad - shift)), 0.0)
                cand /= cand.sum()
                if (m := merit_of(cand)) > base:
                    joint, base = cand, m
                    break
                alpha *= 0.5
        c = residual_of(joint)
        g = g + penalty * c
        proj = _project_feasible(model, joint)
        value = _psi0_raw(model.gain, proj.joint)
        if value > best_value:
            best, best_value = proj, value
        gap = dual_bound(model, -g) - best_value
        if (
            abs(value - prev_value) <= tol
            and float(np.abs(c).max()) <= tol
            and gap <= 10 * tol * max(1.0, abs(best_value))
        ):
            _, res = stationarity_residual(best)
            return best, best_value, res
        prev_value = value
    _, res = stationarity_residual(best)
    raise NoConvergence(
        f"mirror ascent did not meet tol {tol:g} within {iters} iterations",
        iterations=iters,
        certificate=(best, best_value, res),
    )


def certificate_from_eigen(model: MdpModel, eig) -> Certificate:
    """Primal/dual bracket built from a converged eigensolution of ``model``.

    A regularized ``eig`` is an unregularized eigenpair of the smoothed
    companion, which is built once here and bracketed in place of ``model``.
    """
    target = _solved_model(model, eig)
    eta = twisted_occupation(target, replace(eig, epsilon=0.0))
    primal = objective_psi0(target, eta)
    g = np.log(eig.psi)
    dual = dual_bound(target, g)
    return Certificate(primal_lower=primal, dual_upper=dual, gap=dual - primal,
                       eta=eta, g=g)
