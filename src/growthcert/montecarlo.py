"""Simulation cross-checks for the certified growth rates.

Paths are sampled with the counter-based Philox generator keyed by
``(seed, path index)``, so every path owns an independent, reproducible
stream: results are bitwise identical for a given seed regardless of how
the path loop is chunked or ordered.  Each block of paths draws through
one ``Generator`` whose Philox bit generator is re-keyed per path, rather
than constructing a ``Generator`` per path, from a state dict of plain
ints.  Each step of a stream holds two uniforms (action draw, next-state
draw).  Under a randomized policy both are kept and each is looked up in a
guide table (the indexed search of Chen & Asau, 1974) that returns the
inverse-CDF draw bit for bit: a bucket holds its count at its left edge,
and one compare against the next CDF entry settles the draw; only a
bucket with two or more entries inside counts its row.  Under a
deterministic policy the action is the policy's choice, so only the
next-state uniforms are kept and looked up in a guide table on the chosen
rows.  Either way the streams are drawn a few paths at a time into a small
scratch, and the kept columns copied into a step-major block, so each
step's draws are contiguous and the block evolves in place.  The paths are
split into the fewest blocks whose streams hold at most ``_BLOCK_UNIFORMS``
uniforms, all of one size.  The tables are built once per call.

Path products are accumulated as sums of log weights, with ``-inf`` for a
zero weight, so a path that hits a zero reward factor carries the
minus-infinity marker to the end.  Estimates aggregate them with
max-shifted sums, never producing a NaN.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import MdpModel, Policy, _check_policy

# paths per block are at most _BLOCK_UNIFORMS // (2 n), spread evenly over the
# fewest blocks: at most 8 MB of float64 under a randomized policy, 4 MB of kept
# next-state uniforms under a deterministic one
_BLOCK_UNIFORMS = 1 << 20
_BUCKETS_PER_ENTRY = 8  # guide-table buckets per CDF entry, rounded up to a power of two
_SCRATCH_UNIFORMS = 1 << 16  # uniforms drawn at a time (512 KB)


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
    ch. III).  The draw of ``u`` on row ``r`` is the clamped count
    ``min((cum[r] <= u).sum(), width - 1)`` of the row-wise cumulative sums
    ``cum``, which counts only the entries below the last one.  Bucket ``j``
    of row ``r`` covers ``[j/K, (j+1)/K)`` and holds its left count ``lo``,
    the number of those entries at or below ``j/K``.  The table keeps
    ``cum`` with its last column set to 2, above every ``u``, and settles a
    draw with one compare, ``lo + (u >= cum[r, lo])``: entry ``lo`` lies
    past the left edge, so it is the one entry that can lie inside the
    bucket, and when it does not, it lies at or beyond the right edge (or
    is the stored 2) and the compare adds nothing.  Only a bucket with two
    or more entries inside is crowded: it holds the marker -1 and counts
    its row.  With ``K`` a power of two, ``floor(u K)`` and ``c K`` are
    exact, so every draw equals the plain inverse-CDF count bit for bit.  A
    uniform draw lands in a crowded bucket with probability below
    ``width / (2 K)``, and one-hot or dyadic rows crowd none.  Buckets take
    the smallest signed type that holds them (int8 or int16 below 32,768
    columns), so a kernel's guide is at most four times the kernel's size.
    """

    def __init__(self, probs: np.ndarray):
        self.width = width = probs.shape[-1]
        cum = np.cumsum(probs, axis=-1).reshape(-1, width)
        self.buckets = k = 1 << (_BUCKETS_PER_ENTRY * width - 1).bit_length()
        # an entry c below the last one lies at or below edge j/K exactly when j >= ceil(c K)
        first = np.ceil(cum[:, :-1] * k)
        runs = np.diff(np.minimum(first, k).astype(np.intp), prepend=0, append=k)
        counts = np.arange(width, dtype=np.min_scalar_type(-width))
        self.guide = np.repeat(np.tile(counts, len(cum)), runs.ravel())
        # two entries share a bucket, the later one short of its right edge: it is crowded
        r, i = np.nonzero((first[:, 1:] == first[:, :-1]) & (first[:, 1:] <= k)
                          & (cum[:, 1:-1] * k < first[:, 1:]))
        self.guide[r * k + first[r, i + 1].astype(np.intp) - 1] = -1
        self.crowded = r.size > 0
        cum[:, -1] = 2.0
        self.cum = cum.ravel()

    def index(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``rows * width + draw``: the flat index of each row's inverse-CDF draw of ``u``.

        That is the draw's entry in ``cum`` and in any table laid out row by
        row like it, such as the rows of the next table down.
        """
        cell = (u * self.buckets).astype(np.intp)
        cell += rows * self.buckets
        lo = self.guide[cell]
        at = rows * self.width
        at += lo
        if self.crowded:
            search = np.flatnonzero(lo < 0)
            if search.size:  # count the row's entries at or below u: the stored 2 is never one
                r = rows[search]
                hits = self.cum.reshape(-1, self.width)[r] <= u[search, None]
                at[search] = r * self.width + hits.sum(axis=1)
        at += u >= self.cum[at]
        return at


def _tables(model: MdpModel, policy: Policy):
    """The actions, the next-state guide table and the flat log-weight table.

    A deterministic policy's actions are its ``choices()``, and the other two
    tables hold only the chosen ``(state, action)`` rows, indexed by state;
    a randomized policy's actions are a guide table on ``phi``, and the
    other two hold every row, indexed by ``state * a + action``.  ``log_w``
    holds ``-inf`` for a zero weight, so a path that takes one carries the
    minus-infinity marker to the end.
    """
    kernel, w = model.kernel, model.weights
    if policy.kind == "randomized":
        actions = _GuideTable(policy.phi)
    else:
        actions = policy.choices()
        states = np.arange(model.n_states)
        kernel, w = kernel[states, actions], w[states, actions]
    with np.errstate(divide="ignore"):  # log 0 = -inf, the marker
        log_w = np.log(w.ravel())
    return actions, _GuideTable(kernel), log_w


def _stored(tables, uniforms: np.ndarray) -> np.ndarray:
    """The part of ``uniforms[paths, n, 2]`` that :func:`_evolve` reads, as a step-major view.

    That is ``[n, paths]`` next-state draws under a deterministic policy,
    whose actions are its choices, and ``[n, paths, 2]`` (action,
    next-state) under a randomized one.
    """
    return (uniforms[..., 1] if isinstance(tables[0], np.ndarray) else uniforms).swapaxes(0, 1)


def _evolve(tables, x0: int, uniforms: np.ndarray, record: bool = False):
    """Advance a block of paths; returns (log_products, states?, actions?).

    ``uniforms`` is laid out as :func:`_stored` returns it, and read one
    step at a time in place, so a contiguous block reads each step's draws
    contiguously.
    """
    actions_of, next_of, log_w = tables
    fixed = isinstance(actions_of, np.ndarray)  # next-state draws only, as in _stored
    s = next_of.width
    n, b = uniforms.shape[:2]
    xs = np.full(b, x0, dtype=int)
    logs = np.zeros(b)
    states = np.empty((b, n + 1), dtype=int) if record else None
    actions = np.empty((b, n), dtype=int) if record else None
    if record:
        states[:, 0] = xs
    for m, step in enumerate(uniforms):
        # a row of the next-state table (the state, or state * a + action),
        # then its flat index row * s + next state, which indexes log_w too
        rows = xs if fixed else actions_of.index(xs, step[:, 0])
        flat = next_of.index(rows, step if fixed else step[:, 1])
        logs += log_w[flat]
        ys = flat - rows * s
        if record:
            actions[:, m] = actions_of[xs] if fixed else rows - xs * actions_of.width
            states[:, m + 1] = ys
        xs = ys
    return logs, states, actions


def _check_common(model: MdpModel, policy: Policy, n: int, x0: int, seed: int):
    _check_policy(model, policy)
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
    tables = _tables(model, policy)
    logs, states, actions = _evolve(
        tables, x0, _stored(tables, _path_uniforms(seed, 0, 1, n)), record=True
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
    # the fewest blocks of at most `most` paths, all of one size (the last
    # short by less than the count of blocks), so none is larger than it needs
    most = max(1, _BLOCK_UNIFORMS // (2 * n))
    block = -(-paths // -(-paths // most))
    uniforms = np.empty((n, block) + _stored(tables, np.empty((0, 0, 2))).shape[2:])
    sub = min(block, max(1, _SCRATCH_UNIFORMS // (2 * n)))
    scratch = np.empty((sub, n, 2))
    for start in range(0, paths, block):
        count = min(block, paths - start)
        for first in range(0, count, sub):
            k = min(sub, count - first)
            _path_uniforms(seed, start + first, k, n, scratch[:k])
            uniforms[:, first:first + k] = _stored(tables, scratch[:k])
        out[start:start + count] = _evolve(tables, x0, uniforms[:, :count])[0]
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
