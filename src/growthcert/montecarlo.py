"""Simulation cross-checks for the certified growth rates.

Paths are sampled with the counter-based Philox generator keyed by
``(seed, path index)``, so every path owns an independent, reproducible
stream: results are bitwise identical for a given seed regardless of how
the path loop is chunked or ordered.  Each block of paths re-keys one
Philox bit generator per path rather than constructing a ``Generator``
per path; the uniforms are the same bits ``Generator.random`` would give.
Each step consumes two uniforms (action draw, next-state draw) via inverse
CDF lookup.

Estimates aggregate path products in log space with max-shifted sums;
products that hit a zero reward factor contribute the minus-infinity
marker, never a NaN.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import MdpModel, Policy

_BLOCK_UNIFORMS = 1 << 21  # uniforms per block of paths (16 MB of float64)
_CONVERT = 1 << 15  # uniforms converted per ufunc call, bounding its temporary


@dataclass(frozen=True)
class GrowthEstimate:
    """Monte Carlo growth-rate estimate with batch-means error bar.

    ``point`` is ``log(mean of path products) / n``; ``stderr`` comes from
    ``batches`` equal consecutive path blocks.  When every sampled product
    is zero, ``point`` is ``-inf`` and ``all_paths_dead`` flags that
    ``stderr`` (reported as 0) carries no information.
    """

    point: float
    stderr: float
    n: int
    paths: int
    batches: int
    seed: int
    all_paths_dead: bool = False


def _path_uniforms(seed: int, first_path: int, count: int, n: int) -> np.ndarray:
    """Uniforms[count, n, 2] for paths first_path..first_path+count-1.

    Path ``p`` reads the stream of ``Philox(key=[seed, p])`` from a zero
    counter: one bit generator is re-keyed per path, its raw 64-bit words
    are written into the block in place, and the block is converted with
    ``Generator.random``'s formula ``(word >> 11) * 2**-53``, so every value
    is bit-identical to ``Generator(Philox(key=[seed, p])).random((n, 2))``.
    """
    out = np.empty((count, n, 2))
    words = out.reshape(count, 2 * n).view(np.uint64)
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bits.state  # zero counter, empty buffer (buffer_pos 4)
    key = state["state"]["key"]
    for j, row in enumerate(words):
        key[1] = first_path + j
        bits.state = state
        row[:] = bits.random_raw(2 * n)
    flat, flat_words = out.reshape(-1), words.reshape(-1)
    for i in range(0, flat.size, _CONVERT):
        w = flat_words[i:i + _CONVERT]
        np.right_shift(w, 11, out=w)
        # in place across dtypes: numpy copies the input, so go in slices
        np.multiply(w, 2.0 ** -53, out=flat[i:i + _CONVERT])
    return out


def _evolve(model: MdpModel, policy: Policy, x0: int, uniforms: np.ndarray,
            record: bool = False):
    """Advance a block of paths; returns (log_products, states?, actions?)."""
    b, n, _ = uniforms.shape
    s, a = model.n_states, model.n_actions
    cum_phi = np.cumsum(policy.phi, axis=1)
    cum_ker = np.cumsum(model.kernel, axis=2)
    xs = np.full(b, x0, dtype=int)
    logs = np.zeros(b)
    dead = np.zeros(b, dtype=bool)
    states = np.empty((b, n + 1), dtype=int) if record else None
    actions = np.empty((b, n), dtype=int) if record else None
    if record:
        states[:, 0] = xs
    for m in range(n):
        us = np.minimum((cum_phi[xs] <= uniforms[:, m, 0][:, None]).sum(axis=1), a - 1)
        ys = np.minimum((cum_ker[xs, us] <= uniforms[:, m, 1][:, None]).sum(axis=1), s - 1)
        w = model.weights[xs, us, ys]
        dead |= w == 0
        logs += np.log(np.where(w > 0, w, 1.0))
        if record:
            actions[:, m] = us
            states[:, m + 1] = ys
        xs = ys
    logs[dead] = -np.inf
    return logs, states, actions


def _check_common(model: MdpModel, policy: Policy, n: int, x0: int, seed: int):
    if policy.phi.shape != (model.n_states, model.n_actions):
        raise DimensionMismatch(
            f"policy shape {policy.phi.shape} does not match model "
            f"({model.n_states}, {model.n_actions})"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= x0 < model.n_states):
        raise ValueError(f"x0 must index a state (0..{model.n_states - 1})")
    try:
        operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be in 0..2**64-1")


def simulate(model: MdpModel, policy: Policy, n: int, x0: int = 0, seed: int = 0):
    """One trajectory (the stream of path index 0 under ``seed``).

    Returns ``(states, actions, log_product)``; ``log_product`` is the
    minus-infinity marker if any visited transition carries a zero factor.
    """
    _check_common(model, policy, n, x0, seed)
    logs, states, actions = _evolve(
        model, policy, x0, _path_uniforms(seed, 0, 1, n), record=True
    )
    return states[0], actions[0], float(logs[0])


def sample_log_products(model: MdpModel, policy: Policy, n: int, paths: int,
                        x0: int = 0, seed: int = 0) -> np.ndarray:
    """Log reward products of ``paths`` independent trajectories."""
    _check_common(model, policy, n, x0, seed)
    if paths < 1:
        raise ValueError("paths must be >= 1")
    out = np.empty(paths)
    block = max(1, _BLOCK_UNIFORMS // (2 * n))
    for start in range(0, paths, block):
        count = min(block, paths - start)
        logs, _, _ = _evolve(model, policy, x0,
                             _path_uniforms(seed, start, count, n))
        out[start:start + count] = logs
    return out


def _log_mean_exp(values: np.ndarray) -> float:
    shift = values.max()
    if not np.isfinite(shift):
        return float("-inf")
    return float(shift + np.log(np.exp(values - shift).mean()))


def estimate_growth(
    model: MdpModel,
    policy: Policy,
    n: int,
    paths: int,
    batches: int = 20,
    x0: int = 0,
    seed: int = 0,
) -> GrowthEstimate:
    """Growth-rate estimate ``log E[product] / n`` with batch-means stderr."""
    if batches < 2:
        raise ValueError("batches must be >= 2")
    if paths % batches != 0:
        raise ValueError(f"paths ({paths}) must be divisible by batches ({batches})")
    logs = sample_log_products(model, policy, n, paths, x0=x0, seed=seed)
    point = _log_mean_exp(logs) / n
    if not np.isfinite(point) and point < 0:
        return GrowthEstimate(float("-inf"), 0.0, n, paths, batches, seed,
                              all_paths_dead=True)
    per_batch = np.array(
        [_log_mean_exp(chunk) / n for chunk in np.split(logs, batches)]
    )
    if np.all(np.isfinite(per_batch)):
        stderr = float(per_batch.std(ddof=1) / np.sqrt(batches))
    else:
        stderr = float("inf")  # some batch died entirely; error bar is vacuous
    return GrowthEstimate(point, stderr, n, paths, batches, seed)
