"""Controlled-chain data model, feasibility checks, generators, smoothing, serialization.

A model is a finite controlled Markov chain together with a nonnegative
multiplicative reward factor on transitions:

* ``kernel[x, u, y]``   -- probability of jumping to state ``y`` from state
  ``x`` under action ``u``; every ``(x, u)`` row is a distribution over ``y``.
* ``weights[x, u, y]``  -- per-step reward factor ``W = exp(r)`` for that
  transition.  ``W == 0`` encodes a log-reward of minus infinity (a
  forbidden transition for growth purposes); storing the factor rather than
  the log keeps all arithmetic finite.

The product ``kernel * weights`` is the *gain tensor*; its support graph
(edge ``x -> y`` iff some action gives positive gain) drives solvability of
the growth-rate problem, which is what :func:`validate` reports on.

Row-sum hygiene is tiered: deviations up to 1e-12 pass silently, deviations
up to 1e-6 (serialization rounding) are renormalized at construction and
recorded on the model so :func:`validate` can surface them, and anything
worse is rejected as a modeling bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import jsonio
from .errors import (
    CertainExit,
    DanglingVertex,
    DimensionMismatch,
    NonpositiveWealthFactor,
    NotStochastic,
    ReducibleGain,
    SchemaError,
    ZeroDenominator,
    ZeroGainRow,
)

ROW_SUM_SILENT = 1e-12
ROW_SUM_RENORM = 1e-6

_MODEL_FIELDS = ("states", "actions", "kernel", "weights", "metadata")


def _number_array(value, what: str) -> np.ndarray:
    """``value`` as a float array, or a SchemaError naming ``what``.

    The dtype is inferred first and must be numeric: under ``dtype=float``
    numpy would parse a string such as ``"0.5"``.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be a rectangular array of numbers: {exc}") from exc
    if arr.dtype.kind not in "fiu":
        raise SchemaError(f"{what} must be a rectangular array of numbers, not of {arr.dtype}")
    return arr.astype(float, copy=False)


def _as_tensor(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Checked float copy of ``value``; the model never shares the caller's memory."""
    arr = _number_array(value, name).copy()
    if arr.shape != shape:
        raise DimensionMismatch(
            f"{name} has shape {arr.shape}, expected {shape} from the label lists"
        )
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise SchemaError(f"{name} contains negative entries; all entries must be nonnegative")
    return arr


@dataclass(frozen=True)
class MdpModel:
    """Immutable controlled chain with multiplicative reward factors.

    ``renormalized_rows`` records ``(state, action)`` rows whose kernel sums
    deviated by more than 1e-12 but at most 1e-6 at construction and were
    rescaled to exact unit sum.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    kernel: np.ndarray
    weights: np.ndarray
    metadata: str = ""
    renormalized_rows: tuple[tuple[int, int], ...] = field(default=(), init=False)

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        actions = tuple(str(u) for u in self.actions)
        if not states or not actions:
            raise DimensionMismatch("need at least one state and one action")
        if len(set(states)) != len(states):
            raise SchemaError("state labels must be distinct")
        if len(set(actions)) != len(actions):
            raise SchemaError("action labels must be distinct")
        shape = (len(states), len(actions), len(states))
        kernel = _as_tensor("kernel", self.kernel, shape)
        weights = _as_tensor("weights", self.weights, shape)

        sums = kernel.sum(axis=2)
        dev = np.abs(sums - 1.0)
        bad = np.argwhere(dev > ROW_SUM_RENORM)
        if bad.size:
            rows = [tuple(int(i) for i in row) for row in bad]
            raise NotStochastic(
                f"kernel rows {rows} have sums deviating from 1 by more than "
                f"{ROW_SUM_RENORM:g}",
                violations=rows,
            )
        renorm = np.argwhere(dev > ROW_SUM_SILENT)
        if renorm.size:
            idx = tuple((int(x), int(u)) for x, u in renorm)
            for x, u in idx:
                kernel[x, u] /= sums[x, u]
            object.__setattr__(self, "renormalized_rows", idx)
        kernel.flags.writeable = False
        weights.flags.writeable = False

        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "metadata", str(self.metadata))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def gain(self) -> np.ndarray:
        """Gain tensor ``kernel * weights`` (read-only)."""
        g = self.kernel * self.weights
        g.flags.writeable = False
        return g

    @cached_property
    def report(self) -> FeasibilityReport:
        """Feasibility report, computed once per model (see :func:`validate`)."""
        gain = self.gain
        dead = tuple(int(x) for x in np.flatnonzero(gain.sum(axis=2).max(axis=1) == 0.0))
        return FeasibilityReport(
            stochastic_ok=not self.renormalized_rows,
            stochastic_violations=self.renormalized_rows,
            a0_plus=bool(np.all(self.weights > 0)),
            a1_plus=bool(np.all(self.kernel > 0)),
            dead_states=dead,
            gain_irreducible=_strongly_connected(gain.max(axis=1) > 0),
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of :func:`validate`.

    ``a0_plus`` -- all reward factors strictly positive (no forbidden
    transitions); ``a1_plus`` -- all transition probabilities strictly
    positive.  Together these imply ``dead_states`` is empty and the gain
    graph is strongly connected.
    """

    stochastic_ok: bool
    stochastic_violations: tuple[tuple[int, int], ...]
    a0_plus: bool
    a1_plus: bool
    dead_states: tuple[int, ...]
    gain_irreducible: bool


def _strongly_connected(adj: np.ndarray) -> bool:
    """Whether every vertex reaches, and is reached from, vertex 0 along ``adj``."""
    for graph in (adj, adj.T):
        seen = frontier = np.arange(len(graph)) == 0
        while frontier.any():
            frontier = graph[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            return False
    return True


def validate(model: MdpModel) -> FeasibilityReport:
    """Feasibility report of a model, without mutating it.

    The constructor has already rejected kernel rows off by more than 1e-6;
    rows it renormalized are reported as violations, not errors.
    """
    return model.report


def _check_solvable(model: MdpModel) -> None:
    """The one support rule: :class:`ReducibleGain` on a reducible gain graph or a dead state."""
    if not model.report.gain_irreducible or model.report.dead_states:
        raise ReducibleGain("gain graph is not strongly connected, or a state has no "
                            "positive-gain action")


@dataclass(frozen=True)
class Policy:
    """Stationary randomized policy: ``phi[x, u]`` is P(action u | state x)."""

    phi: np.ndarray

    def __post_init__(self):
        phi = _number_array(self.phi, "policy matrix")
        if phi.ndim != 2:
            raise DimensionMismatch("policy matrix must be 2-dimensional")
        if np.any(phi < 0) or not np.all(np.isfinite(phi)):
            raise SchemaError("policy rows must be nonnegative and finite")
        if np.any(np.abs(phi.sum(axis=1) - 1.0) > ROW_SUM_SILENT):
            raise NotStochastic("policy rows must sum to 1")
        phi = phi.copy()
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @classmethod
    def deterministic(cls, choices: Sequence[int], n_actions: int) -> "Policy":
        """Take action ``choices[x]`` in state ``x``; each choice is an action index."""
        picks = np.asarray(choices)
        indices = picks.ndim == 1 and picks.dtype.kind in "iu"
        if not indices or np.any((picks < 0) | (picks >= n_actions)):
            raise SchemaError(f"choices must be integers in 0..{n_actions - 1}, got {choices!r}")
        phi = np.zeros((len(picks), n_actions))
        phi[np.arange(len(picks)), picks] = 1.0
        return cls(phi)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "Policy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    @property
    def kind(self) -> str:
        """``"deterministic"`` when every entry of ``phi`` is 0 or 1, else ``"randomized"``."""
        return "deterministic" if np.isin(self.phi, (0.0, 1.0)).all() else "randomized"

    def choices(self) -> np.ndarray:
        """Per-state argmax action indices (ties to the lowest index)."""
        return np.argmax(self.phi, axis=1)


def _check_policy(model: MdpModel, policy: Policy) -> None:
    """Raise :class:`DimensionMismatch` unless ``policy`` has the model's states and actions."""
    if policy.phi.shape != (model.n_states, model.n_actions):
        raise DimensionMismatch(
            f"policy shape {policy.phi.shape} does not match model "
            f"({model.n_states}, {model.n_actions})"
        )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_graph_model(graphs: Sequence[np.ndarray]) -> MdpModel:
    """Uniform-walk path-counting model from directed graphs.

    Each action ``u`` corresponds to one adjacency matrix.  From state ``x``
    under action ``u`` the walk moves to a uniformly random out-neighbour in
    graph ``u`` and earns reward factor ``d_u(x)`` (the out-degree), so that
    expected products of factors count paths.  Every vertex needs at least
    one out-neighbour in every graph.
    """
    mats = [np.asarray(g) for g in graphs]
    if not mats:
        raise DimensionMismatch("need at least one graph")
    s = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (s, s):
            raise DimensionMismatch(f"graph {i} has shape {m.shape}, expected {(s, s)}")
        if not np.all(np.isin(m, (0, 1))):
            raise SchemaError(f"graph {i} must be a 0/1 adjacency matrix")
    a = len(mats)
    kernel = np.zeros((s, a, s))
    weights = np.zeros((s, a, s))
    for u, m in enumerate(mats):
        deg = m.sum(axis=1)
        if np.any(deg == 0):
            dangling = [int(v) for v in np.flatnonzero(deg == 0)]
            raise DanglingVertex(f"graph {u} has vertices {dangling} with out-degree 0")
        kernel[:, u, :] = m / deg[:, None]
        weights[:, u, :] = m * deg[:, None]
    return MdpModel(
        states=tuple(f"v{i}" for i in range(s)),
        actions=tuple(f"g{u}" for u in range(a)),
        kernel=kernel,
        weights=weights,
        metadata=(
            "graph model: uniform out-neighbour walk per action graph, reward "
            "factor = out-degree on edges; growth rate = max over graph "
            "selections of the log path-count rate"
        ),
    )


def gen_portfolio_model(
    Q: np.ndarray,
    w_support,
    theta: float,
    r_bank: float,
    grid: Sequence[Sequence[float]],
) -> MdpModel:
    """Risk-averse portfolio model over a finite factor chain.

    ``Q[x, y]`` is the factor-state chain; ``w_support[x][y]`` is a finite
    list of ``(prob, w_vector)`` pairs giving the conditional law of the
    risky gross-return vector on an ``x -> y`` step; ``grid`` is the finite
    action set of allocations ``a`` (``a_i >= 0``, ``sum(a) <= 1``, the
    remainder earning the bank factor ``exp(r_bank)``); ``theta > 0`` is the
    risk-aversion exponent.

    Sign convention (recorded in metadata): the model's growth rate is the
    exponential rate of ``E[exp(-(theta/2) * log V_n)]`` where ``V_n`` is
    wealth, so *smaller* is better for the underlying investor and the
    certified maximum corresponds to the most adverse risk-sensitive value.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch("Q must be a square matrix")
    s = Q.shape[0]
    if np.any(Q < 0) or np.any(np.abs(Q.sum(axis=1) - 1.0) > ROW_SUM_RENORM):
        raise NotStochastic("Q rows must be distributions")
    theta = float(theta)
    if not (theta > 0 and math.isfinite(theta)):
        raise SchemaError("theta must be finite and > 0")
    r_bank = float(r_bank)
    if not (r_bank > 0 and math.isfinite(r_bank)):
        raise SchemaError("r_bank must be finite and > 0")

    acts = [np.asarray(a_vec, dtype=float) for a_vec in grid]
    if not acts:
        raise DimensionMismatch("grid must contain at least one allocation")
    m = acts[0].size
    for j, a_vec in enumerate(acts):
        if a_vec.shape != (m,):
            raise DimensionMismatch(f"allocation {j} has shape {a_vec.shape}, expected ({m},)")
        if np.any(a_vec < 0) or a_vec.sum() > 1 + 1e-12:
            raise SchemaError(f"allocation {j} must satisfy a_i >= 0 and sum(a) <= 1")

    if len(w_support) != s or any(len(row) != s for row in w_support):
        raise DimensionMismatch("w_support must provide one entry per (x, y) pair")
    support = []
    for x in range(s):
        row = []
        for y in range(s):
            try:
                pairs = [(float(p), np.asarray(w, dtype=float)) for p, w in w_support[x][y]]
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"w_support[{x}][{y}] must hold (probability, vector) pairs: {exc}"
                ) from exc
            if not pairs:
                raise DimensionMismatch(f"w_support[{x}][{y}] is empty")
            total = sum(p for p, _ in pairs)
            if abs(total - 1.0) > 1e-9 or any(p < 0 for p, _ in pairs):
                raise NotStochastic(f"w_support[{x}][{y}] probabilities must sum to 1")
            for _, w in pairs:
                if w.shape != (m,):
                    raise DimensionMismatch(
                        f"w_support[{x}][{y}] vectors must have {m} components"
                    )
                if np.any(w <= 0):
                    raise SchemaError("risky return vectors must be strictly positive")
            row.append(pairs)
        support.append(row)

    bank = math.exp(r_bank)
    n_a = len(acts)
    mu = np.empty((s, n_a, s))
    for x in range(s):
        for j, a_vec in enumerate(acts):
            for y in range(s):
                acc = 0.0
                for p, w in support[x][y]:
                    bracket = bank + float(np.dot(a_vec, w - bank))
                    if bracket <= 0:
                        raise NonpositiveWealthFactor(
                            f"allocation {j} gives nonpositive wealth factor "
                            f"{bracket:g} on step {x}->{y}"
                        )
                    acc += p * bracket ** (-theta / 2.0)
                mu[x, j, y] = acc

    denom = np.einsum("xy,xjy->xj", Q, mu)
    if np.any(denom <= 0):
        raise ZeroDenominator("normalizer sum_y Q(x,y) mu(x,a,y) vanished")
    kernel = Q[:, None, :] * mu / denom[:, :, None]
    weights = np.broadcast_to(denom[:, :, None], kernel.shape)
    grid_desc = "; ".join(np.array2string(a_vec, separator=",") for a_vec in acts)
    return MdpModel(
        states=tuple(f"x{i}" for i in range(s)),
        actions=tuple(f"a{j}" for j in range(n_a)),
        kernel=kernel,
        weights=weights,
        metadata=(
            "portfolio model: growth rate of E[exp(-(theta/2) log V_n)] "
            f"(theta={theta:g}, r_bank={r_bank:g}); allocations: {grid_desc}"
        ),
    )


def gen_exit_model(P_family: Sequence[np.ndarray], S0: Sequence[int]) -> MdpModel:
    """Controlled exit-rate model: chain restricted to the complement of S0.

    ``P_family`` is one full stochastic matrix per action and ``S0`` the set
    of states being exited into.  The retained states S1 carry the kernel of
    the chain conditioned on staying in S1, with reward factor equal to the
    per-step survival probability ``d(i, u)``; the model's growth rate is
    then the (negative) exit-rate exponent of the original chain.
    """
    mats = [np.asarray(p, dtype=float) for p in P_family]
    if not mats:
        raise DimensionMismatch("need at least one transition matrix")
    n = mats[0].shape[0]
    for u, p in enumerate(mats):
        if p.shape != (n, n):
            raise DimensionMismatch(f"matrix {u} has shape {p.shape}, expected {(n, n)}")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > ROW_SUM_RENORM):
            raise NotStochastic(f"matrix {u} rows must be distributions")
    s0 = sorted(set(int(i) for i in S0))
    if any(i < 0 or i >= n for i in s0):
        raise DimensionMismatch("S0 indices out of range")
    s1 = [i for i in range(n) if i not in s0]
    if not s1:
        raise DimensionMismatch("S0 must leave at least one retained state")

    a = len(mats)
    kernel = np.zeros((len(s1), a, len(s1)))
    weights = np.zeros_like(kernel)
    for u, p in enumerate(mats):
        sub = p[np.ix_(s1, s1)]
        d = sub.sum(axis=1)
        certain = np.flatnonzero(d == 0)
        if certain.size:
            exits = [s1[int(i)] for i in certain]
            raise CertainExit(
                f"states {exits} exit with probability 1 under action {u}"
            )
        kernel[:, u, :] = sub / d[:, None]
        weights[:, u, :] = d[:, None]
    return MdpModel(
        states=tuple(f"s{i}" for i in s1),
        actions=tuple(f"u{u}" for u in range(a)),
        kernel=kernel,
        weights=weights,
        metadata=(
            "exit model: conditioned-on-survival kernel on retained states; "
            "reward factor = one-step survival probability, so the growth "
            "rate is minus the best achievable exit rate"
        ),
    )


def epsilon_model(model: MdpModel, epsilon: float) -> MdpModel:
    """Smoothed companion model with everywhere-positive kernel and weights.

    Mixes each gain row with ``epsilon`` times the uniform row ``1/s`` and
    carries the row's total mass into a constant weight:

        kernel'(x,u,y) = (gain(x,u,y) + eps / s) / (a(x,u) + eps)
        weights'(x,u,y) = a(x,u) + eps,           a(x,u) = sum_y gain(x,u,y).

    The gain tensor is preserved at ``eps = 0`` (identical growth rate) and
    the smoothed rate decreases monotonically to the original one as
    ``eps -> 0``.  A negative or non-finite ``epsilon`` is a ``ValueError``.
    """
    eps = float(epsilon)
    if not (eps >= 0 and math.isfinite(eps)):
        raise ValueError("epsilon must be finite and >= 0")
    gain = model.gain
    a_xu = gain.sum(axis=2)
    if eps == 0.0 and np.any(a_xu == 0):
        raise ZeroGainRow(
            "epsilon = 0 needs every (state, action) to have positive total gain"
        )
    uniform = np.full(model.n_states, 1.0 / model.n_states)
    kernel = (gain + eps * uniform[None, None, :]) / (a_xu + eps)[:, :, None]
    weights = np.broadcast_to((a_xu + eps)[:, :, None], kernel.shape)
    return MdpModel(
        states=model.states,
        actions=model.actions,
        kernel=kernel,
        weights=weights,
        metadata=f"epsilon-smoothed (eps={eps:.17g}) companion of: {model.metadata}",
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(model: MdpModel, path) -> None:
    """Write a model file; numbers carry 17 significant digits."""
    doc = {
        "states": list(model.states),
        "actions": list(model.actions),
        "kernel": model.kernel,
        "weights": model.weights,
    }
    if model.metadata:
        doc["metadata"] = model.metadata
    jsonio.dump(doc, path)


def load_model(path) -> MdpModel:
    """Read a model file written by :func:`save_model` (or by hand)."""
    doc = jsonio.load(path, "model file", cls=jsonio.RowDecoder)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    extra = sorted(set(doc) - set(_MODEL_FIELDS))
    if extra:
        raise SchemaError(f"{path}: unexpected fields {extra}")
    for name in ("states", "actions", "kernel", "weights"):
        if name not in doc:
            raise SchemaError(f"{path}: missing required field '{name}'")
    for name in ("states", "actions"):
        if not isinstance(doc[name], list) or not all(isinstance(v, str) for v in doc[name]):
            raise SchemaError(f"{path}: '{name}' must be a list of strings")
    metadata = doc.get("metadata", "")
    if not isinstance(metadata, str):
        raise SchemaError(f"{path}: 'metadata' must be a string")
    tensors = {}
    for name in ("kernel", "weights"):
        tensors[name] = _number_array(doc[name], f"{path}: '{name}'")
        if tensors[name].ndim != 3:
            raise SchemaError(f"{path}: '{name}' must be a rank-3 tensor")
    return MdpModel(states=tuple(doc["states"]), actions=tuple(doc["actions"]),
                    metadata=metadata, **tensors)
