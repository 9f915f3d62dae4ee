"""Simulation cross-checks for the certified growth rates.

Paths are sampled with the counter-based Philox generator keyed by
``(seed, path index)``, so every path owns an independent, reproducible
stream: results are bitwise identical for a given seed regardless of how
the path loop is chunked or ordered.  Each block of paths draws through
one ``Generator`` whose Philox bit generator is re-keyed per path, rather
than constructing a ``Generator`` per path, from a state dict of plain
ints.  Each step consumes two uniforms (action draw, next-state draw),
read eight steps at a time through a contiguous copy and each looked up in
a guide table (the indexed search of Chen & Asau, 1974) that returns the
inverse-CDF draw bit for bit: a bucket holds its draw, or the count below
the one CDF entry inside it, settled by one compare, and only a bucket
with two or more entries inside searches its row.  The tables are built
once per call.

Path products are accumulated as sums of log weights, with ``-inf`` for a
zero weight, so a path that hits a zero reward factor carries the
minus-infinity marker to the end.  Estimates aggregate them with
max-shifted sums, never producing a NaN.
"""

from __future__ import annotations

import mmap
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import MdpModel, Policy

_BLOCK_UNIFORMS = 1 << 21  # uniforms per block of paths (16 MB of float64)
_BUCKETS_PER_ENTRY = 8  # guide-table buckets per CDF entry, rounded up to a power of two
_CHUNK_STEPS = 8  # steps of uniforms copied at a time: 128 bytes per path


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


def _path_uniforms(seed: int, first_path: int, count: int, n: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms[count, n, 2] for paths first_path..first_path+count-1, in ``out`` if given.

    Path ``p`` reads the stream of ``Philox(key=[seed, p])`` from a zero
    counter: one bit generator under one ``Generator`` is re-keyed per path
    and fills that path's row in place, so every row is
    ``Generator(Philox(key=[seed, p])).random((n, 2))`` by construction.
    The state dict holds plain ints, which the setter reads faster than the
    numpy words of ``bits.state``.
    """
    out = np.empty((count, n, 2)) if out is None else out
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    draw = np.random.Generator(bits).random
    state = bits.state  # zero counter, empty buffer (buffer_pos 4)
    key = state["state"]["key"].tolist()
    state["state"] = {"counter": state["state"]["counter"].tolist(), "key": key}
    state["buffer"] = state["buffer"].tolist()
    for j, row in enumerate(out):
        key[1] = first_path + j
        bits.state = state
        draw(out=row)
    return out


class _GuideTable:
    """Inverse-CDF draws on the rows of ``probs`` through a guide table.

    The indexed search of Chen & Asau (AIIE Trans. 6, 1974; Devroye 1986,
    ch. III).  With ``cum`` the row-wise cumulative sums, bucket ``j`` of row
    ``r`` holds the draw ``min((cum[r] <= u).sum(), width - 1)`` shared by
    every ``u`` in ``[j/K, (j+1)/K)``.  A CDF entry below the last one splits
    that bucket when it lies inside it; one on the bucket's right edge does
    not, since every ``u`` of the bucket is below it.  A bucket split by one
    entry holds ``~lo``, with ``lo`` its count at the left edge, and settles
    a draw with one compare, ``lo + (u >= cum[r, lo])``; a bucket split by
    two or more holds ``~(width - 1)`` and searches its row.  With ``K`` a
    power of two, ``floor(u K)`` is exact, so every draw equals the plain
    inverse-CDF count bit for bit.  A uniform draw lands in a split bucket
    with probability below ``width / K``, and one-hot or dyadic rows split
    none.  Buckets take the smallest signed type that holds them (int8 or
    int16 below 32,768 columns), so a kernel's guide is at most four times
    the kernel's size, and its search keys twice.
    """

    def __init__(self, probs: np.ndarray):
        self.width = width = probs.shape[-1]
        cum = np.cumsum(probs, axis=-1).reshape(-1, width)
        self.cum = cum.ravel()
        # the rows as one increasing array: numpy orders complex numbers by
        # real part, then imaginary part, so row r's keys are r + 1j cum[r]
        self.keys = (np.arange(len(cum))[:, None] + 1j * cum).ravel()
        self.buckets = k = 1 << (_BUCKETS_PER_ENTRY * width - 1).bit_length()
        # a CDF entry c counts from edge first on: c <= j/K exactly when j >= first
        edges = np.arange(k + 1) / k
        first = np.searchsorted(edges, cum)
        # bucket j holds the clamped count at its left edge j/K ...
        draws = np.minimum(np.arange(width + 1), width - 1).astype(np.min_scalar_type(-width))
        runs = np.diff(np.minimum(first, k), prepend=0, append=k)
        self.guide = np.repeat(np.tile(draws, len(first)), runs.ravel())
        # ... unless an entry below the last one lies inside it, short of its right edge
        inner = first[:, :-1]
        r, i = np.nonzero((inner > 0) & (inner <= k)
                          & (cum[:, :-1] < edges[np.minimum(inner, k)]))
        cells = r * k + inner[r, i] - 1
        self.guide[cells] = ~i  # i entries lie at or below the left edge
        cells, splits = np.unique(cells, return_counts=True)
        self.guide[cells[splits > 1]] = ~(width - 1)
        self.split, self.crowded = cells.size > 0, bool((splits > 1).any())

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The inverse-CDF draw of ``u`` on each of ``rows``."""
        cell = (u * self.buckets).astype(np.intp)
        cell += rows * self.buckets
        out = self.guide[cell].astype(np.intp)
        if not self.split:
            return out
        split = np.flatnonzero(out < 0)
        if split.size:
            r, v, lo = rows[split], u[split], ~out[split]
            out[split] = lo + (v >= self.cum[r * self.width + lo])
            if self.crowded:
                search = lo == self.width - 1
                r, v, split = r[search], v[search], split[search]
                count = np.searchsorted(self.keys, r + 1j * v, side="right") - r * self.width
                out[split] = np.minimum(count, self.width - 1)
        return out


def _tables(model: MdpModel, policy: Policy):
    """The action and next-state guide tables and the flat log-weight table.

    ``log_w`` holds ``-inf`` for a zero weight, so a path that takes one
    carries the minus-infinity marker to the end.
    """
    w = model.weights.ravel()
    log_w = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
    return _GuideTable(policy.phi), _GuideTable(model.kernel), log_w


def _evolve(tables, x0: int, uniforms: np.ndarray, record: bool = False):
    """Advance a block of paths; returns (log_products, states?, actions?).

    The uniforms are read ``_CHUNK_STEPS`` steps at a time through a
    contiguous copy (none when a path's row is no longer), so a step's draws
    sit 128 bytes apart, not a path's row.
    """
    actions_of, next_of, log_w = tables
    a, s = actions_of.width, next_of.width
    b, n, _ = uniforms.shape
    xs = np.full(b, x0, dtype=int)
    logs = np.zeros(b)
    states = np.empty((b, n + 1), dtype=int) if record else None
    actions = np.empty((b, n), dtype=int) if record else None
    if record:
        states[:, 0] = xs
    for start in range(0, n, _CHUNK_STEPS):
        chunk = np.ascontiguousarray(uniforms[:, start:start + _CHUNK_STEPS])
        for m in range(chunk.shape[1]):
            us = actions_of.draw(xs, chunk[:, m, 0])
            rows = xs * a + us
            ys = next_of.draw(rows, chunk[:, m, 1])
            logs += log_w[rows * s + ys]
            if record:
                actions[:, start + m] = us
                states[:, start + m + 1] = ys
            xs = ys
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
        _tables(model, policy), x0, _path_uniforms(seed, 0, 1, n), record=True
    )
    return states[0], actions[0], float(logs[0])


def sample_log_products(model: MdpModel, policy: Policy, n: int, paths: int,
                        x0: int = 0, seed: int = 0) -> np.ndarray:
    """Log reward products of ``paths`` independent trajectories."""
    _check_common(model, policy, n, x0, seed)
    if paths < 1:
        raise ValueError("paths must be >= 1")
    out = np.empty(paths)
    tables = _tables(model, policy)
    block = min(paths, max(1, _BLOCK_UNIFORMS // (2 * n)))
    # the call's blocks share one anonymous mapping, unmapped when the call
    # ends: on the malloc heap a freed block stays resident, and whether the
    # next one fits its hole or grows the heap by a block more hangs on the
    # heap's layout (the same benchmark run peaked at 59 or 73 MB by it)
    uniforms = np.frombuffer(mmap.mmap(-1, block * n * 16)).reshape(block, n, 2)
    for start in range(0, paths, block):
        count = min(block, paths - start)
        logs, _, _ = _evolve(tables, x0, _path_uniforms(seed, start, count, n, uniforms[:count]))
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
