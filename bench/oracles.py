"""Answers computed apart from growthcert, and the checks that use them.

Everything here is plain numpy on the tensors read back from the model files
the benchmark wrote; nothing imports the package under test.  The checks use
tolerances, not stored bytes: the last digits of a certificate depend on the
BLAS thread count and summation order.
"""

from __future__ import annotations

import json
import math

import numpy as np


class OracleError(Exception):
    """The oracle itself could not produce a trustworthy reference value."""


def load_gain(path) -> np.ndarray:
    """Gain tensor ``kernel * weights`` of a model file, read with stdlib json."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.asarray(doc["kernel"], dtype=float) * np.asarray(doc["weights"], dtype=float)


def perron(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius and positive eigenvector (sup-norm 1) of an irreducible matrix."""
    vals, vecs = np.linalg.eig(mat)
    i = int(np.argmax(vals.real))
    vec = np.abs(vecs[:, i].real)
    return float(vals[i].real), vec / vec.max()


def optimal_growth(gain: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal ``log rho`` and a maximizing policy, by Howard policy iteration.

    The result is certified by the Collatz-Wielandt bracket of the max
    operator at the final Perron vector; an open bracket is an oracle failure.
    """
    s = gain.shape[0]
    rows = np.arange(s)
    choices = gain.sum(axis=2).argmax(axis=1)
    for _ in range(200):
        rho, psi = perron(gain[rows, choices])
        q = np.einsum("xuy,y->xu", gain, psi)
        best = q.argmax(axis=1)
        keep = q[rows, choices] >= q[rows, best] * (1 - 1e-13)
        new = np.where(keep, choices, best)
        if np.array_equal(new, choices):
            break
        choices = new
    ratios = q.max(axis=1) / psi
    if ratios.max() - ratios.min() > 1e-10 * ratios.min():
        raise OracleError("policy iteration did not close its Collatz-Wielandt bracket")
    return math.log(rho), choices


def cycle_log_rho(length: int) -> float:
    """log of the largest root of x^L - x^(L-1) - 1 (cycle with one self-loop), by bisection."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** (length - 1) * (mid - 1.0) > 1.0:
            hi = mid
        else:
            lo = mid
    return math.log(0.5 * (lo + hi))


def exact_mc_rate(gain: np.ndarray, phi: np.ndarray, n: int, x0: int) -> float:
    """Exact ``log((M_phi^n 1)[x0]) / n`` by rescaled repeated products."""
    mat = np.einsum("xu,xuy->xy", phi, gain)
    v = np.ones(mat.shape[0])
    log_scale = 0.0
    for _ in range(n):
        v = mat @ v
        top = v.max()
        v /= top
        log_scale += math.log(top)
    return (math.log(v[x0]) + log_scale) / n


def psi0(gain: np.ndarray, joint: np.ndarray) -> float:
    """Occupation objective: minus the etat-weighted KL of eta2 against the gain rows."""
    etat = joint.sum(axis=2)
    total = 0.0
    for x, u in zip(*np.nonzero(etat)):
        p = joint[x, u] / etat[x, u]
        m = p > 0
        total -= etat[x, u] * float(np.sum(p[m] * np.log(p[m] / gain[x, u, m])))
    return total


def dual(gain: np.ndarray, g: np.ndarray) -> float:
    """Dual bound ``max_x [log max_u sum_y gain e^g - g(x)]`` for a positive gain tensor."""
    return float(np.max(np.log(np.einsum("xuy,y->xu", gain, np.exp(g)).max(axis=1)) - g))


def flow_residual(joint: np.ndarray) -> float:
    return float(np.abs(joint.sum(axis=(0, 1)) - joint.sum(axis=(1, 2))).max())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_solve(gain: np.ndarray, doc: dict, closed_form: float | None) -> list[str]:
    """Problems with a ``solve`` report, judged against the input tensors."""
    errs = []
    if not doc.get("converged") or "error" in doc:
        return ["solve did not report a converged solution"]
    lam, rho = doc["lambda"], doc["rho"]
    psi = np.asarray(doc["psi"], dtype=float)
    if psi.shape != (gain.shape[0],) or np.any(psi <= 0):
        return ["psi is not a positive vector of the model's length"]
    ratios = np.einsum("xuy,y->xu", gain, psi).max(axis=1) / psi
    lo, hi = ratios.min(), ratios.max()
    if not (lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)):
        errs.append(f"rho {rho!r} outside the recomputed bracket [{lo!r}, {hi!r}]")
    if hi - lo > 2e-10 * lo:
        errs.append(f"recomputed bracket [{lo!r}, {hi!r}] is not closed")
    if not (_close(lo, doc["cw_lower"], 1e-12) and _close(hi, doc["cw_upper"], 1e-12)):
        errs.append("reported bracket differs from the recomputed one")
    choices = np.argmax(np.asarray(doc["policy"]["phi"], dtype=float), axis=1)
    rho_policy = float(np.abs(np.linalg.eigvals(gain[np.arange(len(psi)), choices])).max())
    if abs(rho_policy - rho) > 1e-9 * rho:
        errs.append(f"policy gain matrix has rho {rho_policy!r}, report says {rho!r}")
    if closed_form is not None and abs(lam - closed_form) > 1e-9:
        errs.append(f"lambda {lam!r} differs from the closed form {closed_form!r}")
    cert = doc["certificate"]
    eta = np.asarray(cert["eta"], dtype=float)
    if abs(eta.sum() - 1.0) > 1e-9 or np.any(eta < 0) or flow_residual(eta) > 1e-9:
        errs.append("certificate eta is not a stationary probability measure")
    primal, upper = cert["primal_lower"], cert["dual_upper"]
    if not _close(psi0(gain, eta), primal, 1e-9):
        errs.append("primal_lower differs from the objective recomputed at eta")
    if not _close(dual(gain, np.asarray(cert["g"], dtype=float)), upper, 1e-9):
        errs.append("dual_upper differs from the dual bound recomputed at g")
    if not (primal <= lam + 1e-9 and lam <= upper + 1e-9):
        errs.append(f"lambda {lam!r} not inside [primal {primal!r}, dual {upper!r}]")
    if not (-1e-12 <= cert["gap"] <= 1e-8 and _close(cert["gap"], upper - primal, 1e-12)):
        errs.append(f"certificate gap {cert['gap']!r} is not in [0, 1e-8]")
    return errs


def check_mc(gain: np.ndarray, phi: np.ndarray, doc: dict, n: int, paths: int,
             x0: int) -> list[str]:
    """Problems with an ``mc`` report: the estimate must sit within 6 stderr of the exact rate."""
    if doc.get("n") != n or doc.get("paths") != paths or doc.get("all_paths_dead"):
        return ["mc report does not echo its horizon and path count"]
    exact = exact_mc_rate(gain, phi, n, x0)
    point, stderr = doc["point"], doc["stderr"]
    if not (isinstance(stderr, float) and 0 < stderr < 1):
        return [f"stderr {stderr!r} is not a usable error bar"]
    if abs(point - exact) > 6 * stderr:
        return [f"estimate {point!r} is {abs(point - exact) / stderr:.1f} stderr "
                f"from the exact rate {exact!r}"]
    return []


def check_variational(gain: np.ndarray, doc: dict, log_rho: float, tol: float) -> list[str]:
    """Problems with a converged ``variational`` report."""
    errs = []
    eta = np.asarray(doc["eta"], dtype=float)
    value = doc["value"]
    if abs(eta.sum() - 1.0) > 1e-9 or np.any(eta < 0):
        errs.append("eta is not a probability measure")
    if flow_residual(eta) > tol:
        errs.append(f"recomputed stationarity residual {flow_residual(eta)!r} exceeds {tol}")
    if not _close(psi0(gain, eta), value, 1e-9):
        errs.append("value differs from the objective recomputed at eta")
    if value > log_rho + 1e-9:
        errs.append(f"value {value!r} exceeds log rho {log_rho!r}")
    if log_rho - value > 1e-5:
        errs.append(f"converged value is {log_rho - value:.3g} below log rho")
    return errs
