"""Occupation-measure side of the growth-rate problem.

The growth rate ``log rho`` of a model equals the supremum, over stationary
occupation measures ``eta(x, u, y)`` whose ``y``-marginal matches their
``x``-marginal, of

    Psi0(eta) = - sum_{x,u} eta~(x,u) * D( eta2(.|x,u) || gain(x,u,.) ),

the negative relative entropy of the conditional next-state law against the
*unnormalized* gain row ``kernel * weights``.  This module provides the
objective, feasibility utilities, the attaining measure built from a solved
eigenpair (the psi-twisted chain), the dual upper bound
``max_x [log (T e^g)(x) - g(x)]``, and a maximizer that minimizes a soft-max
smoothing of that bound by Newton's method and reads a stationary measure
off its solution, so that each run returns both sides of the bracket.  As
``Psi0`` is -inf off the gain support, no positivity is needed: the dual
bound holds on every model, and :func:`maximize` and :func:`random_feasible`
refuse only what :func:`model._check_solvable` refuses.  The module takes
eigensolutions as data and never calls the eigensolver, so the two routes
check each other; a regularized eigensolution is certified against the
epsilon-smoothed companion (:func:`model.epsilon_model`) it solves.
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
)
from .model import MdpModel, _check_policy, _check_solvable, epsilon_model

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
        joint = np.array(self.joint, dtype=float)
        if joint.ndim != 3 or joint.shape[0] != joint.shape[2]:
            raise NotDistribution("joint must have shape (s, a, s)")
        if not np.all(np.isfinite(joint)) or np.any(joint < 0):
            raise NotDistribution("joint entries must be finite and >= 0")
        if abs(joint.sum() - 1.0) > MASS_TOL:
            raise NotDistribution(f"joint mass {joint.sum()!r} is not 1 within {MASS_TOL:g}")
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


def objective_psi0(model: MdpModel, eta: OccupationMeasure) -> float:
    """Objective whose supremum over feasible measures is log rho; -inf on zero-gain steps."""
    joint, gain = eta.joint, model.gain
    if joint.shape != gain.shape:
        raise NotDistribution(
            f"measure shape {joint.shape} does not match model shape {gain.shape}"
        )
    sup = joint > 0
    if np.any(sup & (gain == 0)):
        return float("-inf")
    etat, _, cond = _conditionals(joint)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 off the support, zeroed below
        cond *= np.log(cond) - np.log(gain)
    cond[~sup] = 0.0
    return -float(np.einsum("xu,xuy->", etat, cond))


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
    is row-stochastic exactly when ``(rho, psi)`` solves the eigenproblem.
    On the greedy ``v_star.choices()`` rows the measure is ``pi(x) p*(y|x)``,
    ``pi`` the stationary law of the normalized twisted kernel; it attains
    the variational supremum.  ``model`` is the model that was solved; for
    a regularized ``eig`` the twist uses its epsilon-smoothed companion.
    """
    if not eig.converged:
        raise NotConverged("twisted occupation needs a converged eigensolution")
    _check_policy(model, eig.v_star)
    model = _solved_model(model, eig)
    s = model.n_states
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
    P /= row_sums[:, None]
    joint = np.zeros(model.gain.shape)
    joint[np.arange(s), choices, :] = _stationary(P)[:, None] * P
    return OccupationMeasure(joint)


def random_feasible(model: MdpModel, seed: int) -> OccupationMeasure:
    """Random stationary occupation measure (deterministic in ``seed``).

    Draws action laws on the live (state, action) pairs and next-state laws on
    the gain support, and closes them with the induced chain's stationary law.
    That chain moves along every gain edge, so it is irreducible on every model
    :func:`maximize` takes; the others raise its :class:`ReducibleGain`.
    Retries a fresh draw up to 10 times if the stationary solve degenerates.
    """
    _check_solvable(model)
    support = model.gain > 0
    live = support.any(axis=2)
    s, a = model.n_states, model.n_actions
    rng = np.random.default_rng(seed)
    last_exc = None
    for _ in range(10):
        eta1 = rng.gamma(1.0, size=(s, a)) * live
        eta1 /= eta1.sum(axis=1, keepdims=True)
        eta2 = _conditionals(rng.gamma(1.0, size=(s, a, s)) * support)[2]
        try:
            return _stationary_measure(eta1, eta2)
        except SingularChain as exc:
            last_exc = exc
    raise SingularChain("no usable draw after 10 attempts") from last_exc


def dual_bound(model: MdpModel, g: np.ndarray) -> float:
    """Upper bound ``max_x [log (T e^g)(x) - g(x)]`` on the growth rate.

    Valid for every finite ``g`` and tight at ``g = log psi``: ``e^g``
    is subinvariant, ``T e^g <= e^{bound} e^g``, which bounds the growth
    rate for any nonnegative gain (Collatz-Wielandt).  A dead state, whose
    ``(T e^g)(x)`` is 0, only drops out of the maximum.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (model.n_states,) or not np.all(np.isfinite(g)):
        raise NotDistribution(f"g must be a finite vector of length {model.n_states}")
    with np.errstate(divide="ignore"):  # log 0 off the gain support: a dead pair's L is -inf
        return float(_pair_values(np.log(model.gain), g)[0].max())


def _pair_values(log_gain: np.ndarray, g: np.ndarray):
    """``(L, e, norm)``: ``L[x, u] = log sum_y gain e^g - g[x]``, ``e / norm`` the Gibbs rows.

    A dead pair (gain row all zero) has ``L = -inf`` and a zero Gibbs row.
    """
    z = log_gain + g
    zmax = z.max(axis=2, keepdims=True)
    z -= np.maximum(zmax, np.finfo(float).min)  # a finite shift: a dead row stays -inf, not NaN
    e = np.exp(z, out=z)
    norm = e.sum(axis=2)
    np.maximum(norm, 1.0, out=norm)  # a live row sums to >= 1 (its top is exp(0)); a dead one, 0
    return zmax[:, :, 0] + np.log(norm) - g[:, None], e, norm


def _smoothed_dual(log_gain: np.ndarray, g: np.ndarray, tau: float):
    """``F_tau(g)``, the pair values ``L``, soft-max weights ``w`` and Gibbs rows ``q``.

    ``F_tau = tau * logsumexp(L / tau)`` exceeds ``max L``, the bound of
    :func:`dual_bound`, by at most ``tau log(s a)``; ``w = softmax(L / tau)``
    is its gradient in ``L`` and ``q = e / norm`` (see :func:`_pair_values`).
    """
    L, e, norm = _pair_values(log_gain, g)
    top = L.max()
    with np.errstate(over="ignore"):  # (L - top) / tau may overflow to -inf: exp gives its limit 0
        w = np.exp((L - top) / tau)
    total = w.sum()
    return top + tau * np.log(total), L, w / total, e / norm[:, :, None]


def maximize(model: MdpModel, iters: int = 500, tol: float = 1e-6) -> Certificate:
    """Primal/dual bracket on the growth rate from the smoothed dual.

    Minimizes ``F_tau(g) = tau * logsumexp_{x,u}(L[x, u] / tau)``, a convex
    soft-max smoothing of :func:`dual_bound` (Nesterov 2005), by Newton's
    method with an Armijo backtrack, lowering ``tau`` tenfold from 1 after
    each solve.  At a minimizer of ``F_tau`` the soft-max weights times the
    Gibbs rows ``gain * e^g`` form a stationary measure.  After each solve
    the action and next-state laws of that measure are closed with the
    stationary law of the chain they induce, so the objective there is a
    true lower bound even for an inexact solve, and ``dual_bound(model, g)``
    is a true upper bound.  The run stops when their gap is at most
    ``tol * max(1, |value|)``.

    Returns the :class:`Certificate` (``primal_lower`` is the value);
    raises :class:`NoConvergence` carrying the last certificate when
    ``iters`` Newton steps (each Newton system solved counts one) run out
    first, or when a Newton system is singular in floating point (its solve
    fails or gives a non-finite step) and the certificate closed at that
    ``g`` is still too wide.  A closure whose stationary solve fails (a
    nearly decomposable chain) raises :class:`NoConvergence` too, carrying
    the last certificate closed before it, or none.  A model the eigensolver
    refuses without a fallback raises the same :class:`ReducibleGain`.  A
    non-finite or non-positive ``tol``, or ``iters`` below 1, is a ``ValueError``.
    """
    if not (tol > 0 and np.isfinite(tol)) or iters < 1:
        raise ValueError("tol must be finite and > 0, and iters >= 1")
    _check_solvable(model)
    with np.errstate(divide="ignore"):  # log 0 = -inf off the gain support
        log_gain = np.log(model.gain)
    s = model.n_states
    g = np.zeros(s)
    tau, used, cert = 1.0, 0, None
    while True:
        f, L, w, q = _smoothed_dual(log_gain, g, tau)
        flow = np.einsum("xu,xuy->xy", w, q)
        out, into = w.sum(axis=1), flow.sum(axis=0)
        grad = into - out
        # sum_w (diag q - q q^T) + Cov_w(q - e_x) / tau, expanded so that one
        # (s*a) x s product carries both sums of q q^T
        rows = q.reshape(-1, s)
        with np.errstate(over="ignore", invalid="ignore"):  # 1 / tau may overflow: a singular system
            hess = ((1.0 / tau - 1.0) * (rows.T * w.ravel()) @ rows
                    + np.diag(into + out / tau)
                    - (flow + flow.T + np.outer(grad, grad)) / tau)
        step = np.zeros(s)  # F_tau is flat along the ones vector: pin g[0]
        try:
            step[1:] = np.linalg.solve(hess[1:, 1:], -grad[1:])
        except np.linalg.LinAlgError:
            step[1:] = np.nan
        if singular := not np.isfinite(step).all():  # singular in floating point: close at this g
            step[:] = 0.0
        decrement = -grad @ step
        used += 1
        if decrement > 0.01 * tol and used < iters:
            t = 1.0
            while t > 1e-10 and (
                _smoothed_dual(log_gain, g + t * step, tau)[0] > f - t * decrement / 4
            ):
                t /= 2
            g = g + t * step
            continue
        # w's action law, as a soft-max per state so that no row underflows to zero;
        # (L - max) / tau may overflow to -inf, whose exp, 0, is the limit
        with np.errstate(over="ignore"):
            phi = np.exp((L - L.max(axis=1, keepdims=True)) / tau)
        try:
            eta = _stationary_measure(phi / phi.sum(axis=1, keepdims=True), q)
        except SingularChain as exc:  # a valid model: the closure failed, not the input
            raise NoConvergence(
                f"smoothed-dual Newton could not close a certificate: {exc}",
                iterations=used,
                certificate=cert,
            ) from exc
        value = objective_psi0(model, eta)
        dual = float(L.max())  # dual_bound(model, g)
        cert = Certificate(primal_lower=value, dual_upper=dual, gap=dual - value, eta=eta, g=g)
        if cert.gap <= tol * max(1.0, abs(value)):
            return cert
        if used >= iters or singular:
            why = "at a singular Newton system" if singular else f"within {iters} iterations"
            raise NoConvergence(
                f"smoothed-dual Newton did not close the gap to tol {tol:g} {why}",
                iterations=used,
                certificate=cert,
            )
        tau /= 10.0


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
