"""Complexity-invariant subsequence distance and best-match search.

The subsequence distance between an instance and a query of length ``l``
is the minimum complexity-invariant distance (CID) over every window of
the instance's channel that lies fully inside the unpadded region. CID is
the Euclidean distance scaled by the ratio of the two series' complexity
estimates, which penalizes matching a wiggly query against a flat window
and vice versa.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import LabeledSeries, ValidationError

# Guards the complexity ratio when one side is constant (zero complexity).
EPS_COMPLEXITY = 1e-8
# Floors the window std when z-normalization is enabled.
EPS_STD = 1e-8


class ShapeletLengthError(ValueError):
    """Query longer than the instance's unpadded region: no window exists."""


@dataclass(frozen=True)
class MatchResult:
    """Best window for a query: its distance, start index and values."""

    psd: float
    offset: int
    window: np.ndarray


def complexity_estimate(q: np.ndarray) -> float:
    """Root of the summed squared first differences; 0 for constant input."""
    q = np.asarray(q, dtype=np.float64)
    if q.size <= 1:
        return 0.0
    d = np.diff(q)
    return float(np.sqrt(np.dot(d, d)))


def _complexity_factor(ce_a, ce_b):
    hi = np.maximum(ce_a, ce_b)
    lo = np.maximum(np.minimum(ce_a, ce_b), EPS_COMPLEXITY)
    return hi / lo


def _znorm_rows(a: np.ndarray) -> np.ndarray:
    mean = a.mean(axis=-1, keepdims=True)
    std = np.maximum(a.std(axis=-1, keepdims=True), EPS_STD)
    return (a - mean) / std


# Instances per engine step: bounds the (chunk, windows, length) working
# arrays whatever the dataset size. Both engines step by it.
INSTANCE_CHUNK = 64


def _windows(values: np.ndarray, l: int, znorm: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every length-``l`` window of each row of ``values``, z-scored one by
    one when ``znorm`` is set, shape (M, W, l), and each window's squared
    complexity, shape (M, W). Each sum runs along its own window, so its
    error is bounded by the window's values alone."""
    windows = sliding_window_view(values, l, axis=1)
    if znorm:
        windows = _znorm_rows(windows)
        dw = np.diff(windows, axis=-1)
    else:
        dw = sliding_window_view(np.diff(values, axis=1), l - 1, axis=1)
    return windows, np.einsum("...j,...j->...", dw, dw)


def match(values: np.ndarray, lengths: np.ndarray, queries: np.ndarray,
          znorm: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-CID match of each query against each instance, exactly.

    Parameters
    ----------
    values : (M, T) one channel across M zero-padded instances
    lengths : (M,) unpadded lengths
    queries : (n, l) equal-length queries

    Returns ``(dists, offsets)`` of shape (M, n). Each distance is computed
    by direct difference, so an exact match reads 0. Windows that leave the
    unpadded region never win, ties go to the smallest offset, and an
    instance shorter than ``l`` gets +inf and offset -1. Every sum runs
    along one window in the same order for any batch, so a result never
    depends on which other instances or queries share the call.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    (m, t), (n, l) = values.shape, queries.shape
    if l < 1:
        raise ValueError("queries must have at least one sample")
    dists = np.full((m, n), np.inf)
    offsets = np.full((m, n), -1, dtype=np.int64)
    if l > t:
        return dists, offsets

    qs = [_znorm_rows(q[None, :])[0] if znorm else q for q in queries]
    ce_q = [complexity_estimate(q) for q in qs]
    w = t - l + 1
    for i0 in range(0, m, INSTANCE_CHUNK):
        i1 = min(i0 + INSTANCE_CHUNK, m)
        windows, ce2 = _windows(values[i0:i1], l, znorm)             # (c, W, l), (c, W)
        ce_w = np.sqrt(ce2)
        invalid = np.arange(w)[None, :] > (lengths[i0:i1, None] - l)
        rows = np.arange(i1 - i0)
        for k, q in enumerate(qs):
            diff = windows - q
            profile = np.sqrt(np.einsum("...j,...j->...", diff, diff))
            profile *= _complexity_factor(ce_w, ce_q[k])
            profile[invalid] = np.inf
            best = np.argmin(profile, axis=1)                         # first index wins ties
            dists[i0:i1, k] = profile[rows, best]
            offsets[i0:i1, k] = best
    offsets[lengths < l] = -1                     # no window fits: dists stay +inf
    return dists, offsets


def match_pool(instances, shapelets, znorm: bool = False,
               threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Best match of every shapelet on every instance, in the given orders.

    Shapelets are grouped by (channel, length) and each group is scored
    against all instances in one ``match`` call, on up to ``threads``
    threads; results are collected in group order, so the thread count
    never changes an output. Returns ``(dists, offsets)`` of shape
    (len(instances), len(shapelets)); offset -1 marks a shapelet longer
    than the instance's unpadded region. A shapelet on a channel the
    instances do not have is refused.
    """
    instances = list(instances)
    dists = np.full((len(instances), len(shapelets)), np.inf)
    offsets = np.full(dists.shape, -1, dtype=np.int64)
    if not instances:
        return dists, offsets
    n_channels = instances[0].n_channels
    lengths = np.asarray([x.original_length for x in instances], dtype=np.int64)
    groups: dict[tuple[int, int], list[int]] = {}
    for j, s in enumerate(shapelets):
        if s.channel >= n_channels:
            raise ValidationError(f"shapelet channel {s.channel} is out of range for "
                                  f"data with {n_channels} channels")
        groups.setdefault((s.channel, len(s)), []).append(j)
    channels = {v: np.stack([x.values[v] for x in instances]) for v, _ in groups}

    def run(item):
        (channel, _), idx = item
        return match(channels[channel], lengths,
                     np.stack([shapelets[j].values for j in idx]), znorm)

    items = sorted(groups.items())
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, items))     # in submission order
    else:
        results = map(run, items)
    for (_, idx), (d, o) in zip(items, results):
        dists[:, idx], offsets[:, idx] = d, o
    return dists, offsets


def psd(x: LabeledSeries, channel: int, s: np.ndarray, znorm: bool = False) -> MatchResult:
    """Minimum-CID match of query ``s`` on one channel of an instance.

    A one-row call of ``match``: windows never extend into the zero-padded
    tail and ties resolve to the smallest start index.
    """
    if not 0 <= channel < x.n_channels:
        raise ValueError(f"channel {channel} out of range for {x.n_channels} channels")
    s = np.asarray(s, dtype=np.float64)
    if len(s) > x.original_length:
        raise ShapeletLengthError(
            f"shapelet of length {len(s)} does not fit instance {x.id} "
            f"(original_length {x.original_length})"
        )
    d, o = match(x.values[channel][None, :], [x.original_length], s[None, :], znorm)
    j = int(o[0, 0])
    return MatchResult(psd=float(d[0, 0]), offset=j,
                       window=x.values[channel, j : j + len(s)].copy())


# ---------------------------------------------------------------------------
# Batched search used by discovery scoring
# ---------------------------------------------------------------------------
# Discovery evaluates every candidate against every training instance; the
# exact engine above is too slow for that, so same-length queries are
# scored jointly with one windows-by-queries matmul. Block sizes are fixed
# constants: results are bit-identical no matter how work is scheduled.

QUERY_BLOCK = 64
# Instances per step of the elementwise pass over one matmul's output.
MIN_TILE = 8


@dataclass(frozen=True)
class PreparedWindows:
    """Per-(channel, length) window statistics of one instance chunk.

    Building the contiguous window matrix dominates the cost of a single
    batched call, so discovery prepares it once per group and chunk and
    scores every query block against it.
    """

    m: int
    w: int
    l: int
    flat: np.ndarray          # (M*W, l+2) windows extended with [sq_w, 1] columns
    invalid: np.ndarray       # (M, W) True where the window leaves the unpadded region
    ce2: np.ndarray           # (M, W) squared window complexity (z-scored if znorm)
    inv_ce2: np.ndarray       # (M, W) 1 / max(window complexity, eps)^2
    znorm: bool


def prepare_windows(values: np.ndarray, lengths: np.ndarray, l: int,
                    znorm: bool = False) -> PreparedWindows:
    """Window statistics of one channel for all queries of length ``l``.

    The window matrix carries two extra columns, the window's squared norm
    and a constant one. Dotting a row with an extended query
    ``[-2q, 1, ||q||^2]`` then yields the squared Euclidean distance straight
    from the matmul. The windows and their complexities are the ones
    ``match`` scores, z-scored one by one under z-normalization, and each
    squared norm is summed over its own window.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    m, t = values.shape
    w = t - l + 1
    if w <= 0:
        raise ShapeletLengthError(f"query length {l} exceeds series length {t}")

    windows, ce2 = _windows(values, l, znorm)
    flat = np.empty((m * w, l + 2))
    body = flat.reshape(m, w, l + 2)[:, :, :l]               # one copy of the windows
    np.copyto(body, windows)
    flat[:, l] = np.einsum("...j,...j->...", body, body).ravel()
    flat[:, l + 1] = 1.0

    ce_w = np.sqrt(ce2)
    inv_ce2 = np.square(1.0 / np.maximum(ce_w, EPS_COMPLEXITY))

    n_valid = np.maximum(lengths - l + 1, 0)                  # valid windows per instance
    invalid = np.arange(w)[None, :] >= n_valid[:, None]       # (M, W)
    return PreparedWindows(m=m, w=w, l=l, flat=flat, invalid=invalid,
                           ce2=np.square(ce_w), inv_ce2=inv_ce2, znorm=znorm)


@dataclass(frozen=True)
class PreparedQueries:
    """One query block's terms, built once and scored against every chunk."""

    l: int
    ext: np.ndarray           # (l+2, n) extended queries [-2q, 1, ||q||^2]
    ce2: np.ndarray           # (n,) squared query complexity (z-scored if znorm)
    inv_ce2: np.ndarray       # (n,) 1 / max(query complexity, eps)^2
    znorm: bool

    def __len__(self) -> int:
        return self.ext.shape[1]


def prepare_queries(queries: np.ndarray, znorm: bool = False) -> PreparedQueries:
    """The query-side terms of ``prepared_min_cid`` for a block of
    equal-length queries, z-scored first when ``znorm`` is set. Dotted with
    an extended window row (see ``prepare_windows``), an extended query
    ``[-2q, 1, ||q||^2]`` yields the squared Euclidean distance."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n, l = queries.shape
    qz = _znorm_rows(queries) if znorm else queries
    dq = np.diff(qz, axis=1)
    ce_q = np.sqrt(np.einsum("ij,ij->i", dq, dq)) if l >= 2 else np.zeros(n)
    ext = np.empty((l + 2, n))
    ext[:l] = -2.0 * qz.T
    ext[l] = 1.0
    ext[l + 1] = np.einsum("ij,ij->i", qz, qz)
    return PreparedQueries(l=l, ext=ext, ce2=np.square(ce_q),
                           inv_ce2=np.square(1.0 / np.maximum(ce_q, EPS_COMPLEXITY)),
                           znorm=znorm)


def prepared_min_cid(prep: PreparedWindows, queries: PreparedQueries,
                     live: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Minimum CID of one query block against one prepared chunk, shape (M, n).

    Callers must chunk queries into fixed QUERY_BLOCK-sized blocks and
    instances into fixed INSTANCE_CHUNK slices, so the matmul shape (and
    therefore the accumulation order) never depends on scheduling. One
    matmul covers the whole chunk by the whole block; the elementwise pass
    and the min reduction then walk its output in MIN_TILE-instance tiles
    with one small scratch, so the pass stays in cache. Comparisons happen
    on squared CID (the square root is monotone) and the root is taken per
    tile on the minima. Instances with no valid window read +inf.

    ``live``, when given, masks the columns to score; the others read NaN.
    While more than half the columns are live the pass runs on all of them,
    since gathering the live ones would cost more than it saves. Every pass
    step is elementwise, so a distance does not depend on which other
    columns were scored. The result goes to ``out`` when one is given.

    The complexity ratio is applied squared via
    ``cf^2 = max(ce_w^2 / max(ce_q, eps)^2, ce_q^2 / max(ce_w, eps)^2)``,
    which equals the reference ``(max(ce) / max(min(ce), eps))^2`` for all
    non-negative inputs but needs only precomputed squares and reciprocals.
    """
    if (queries.l, queries.znorm) != (prep.l, prep.znorm):
        raise ValueError(f"queries of length {queries.l} (znorm={queries.znorm}) do not "
                         f"match windows of length {prep.l} (znorm={prep.znorm})")
    m, w, n = prep.m, prep.w, len(queries)
    dists = np.empty((m, n)) if out is None else out
    live = np.ones(n, dtype=bool) if live is None else np.asarray(live, dtype=bool)
    n_live = int(np.count_nonzero(live))
    gather = 2 * n_live <= n
    cols = np.flatnonzero(live) if gather else slice(None)

    buf = np.matmul(prep.flat, queries.ext).reshape(m, w, n)
    tile_size = min(MIN_TILE, m) * w * n
    # the two complexity-factor terms, then a tile's gathered live columns
    scratch = np.empty(3 * tile_size)
    gathered = scratch[2 * tile_size :]
    for j0 in range(0, m, MIN_TILE):
        j1 = min(j0 + MIN_TILE, m)
        tile = buf[j0:j1]
        if gather:
            tile = np.take(tile, cols, axis=2, mode="clip",
                           out=gathered[: (j1 - j0) * w * n_live].reshape(j1 - j0, w, n_live))
        cf = scratch[: 2 * tile.size].reshape((2,) + tile.shape)
        # Squared complexity factor, then squared CID. The outer products
        # go through einsum, which is about twice as fast here as a
        # broadcast multiply and gives the same products.
        t1 = np.einsum("tw,n->twn", prep.ce2[j0:j1], queries.inv_ce2[cols], out=cf[0])
        t2 = np.einsum("tw,n->twn", prep.inv_ce2[j0:j1], queries.ce2[cols], out=cf[1])
        np.maximum(t1, t2, out=t1)
        np.multiply(tile, t1, out=tile)
        invalid = prep.invalid[j0:j1]
        if invalid.any():
            tile[invalid] = np.inf
        d = np.min(tile, axis=1, out=None if gather else dists[j0:j1])
        # ed^2 can round slightly negative for near-identical pairs; clip
        # before the root. Rows with no valid window stay +inf.
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        if gather:
            dists[j0:j1, cols] = d
    if n_live < n:
        dists[:, ~live] = np.nan
    return dists
