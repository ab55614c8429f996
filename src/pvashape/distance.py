"""Complexity-invariant subsequence distance and best-match search.

The subsequence distance between an instance and a query of length ``l``
is the minimum complexity-invariant distance (CID) over every window of
the instance's channel that lies fully inside the unpadded region. CID is
the Euclidean distance scaled by the ratio of the two series' complexity
estimates, which penalizes matching a wiggly query against a flat window
and vice versa.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSeries, ValidationError

# Guards the complexity ratio when one side is constant (zero complexity).
EPS_COMPLEXITY = 1e-8


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


# Instances per engine step: bounds each engine's (chunk, windows, ...)
# working arrays whatever the dataset size. Both engines step by it.
INSTANCE_CHUNK = 64

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _strided_windows(a: np.ndarray, l: int) -> np.ndarray:
    """Every length-``l`` window of each row of the C-contiguous (M, T)
    array ``a``: a read-only view of shape (M, T-l+1, l). The ndarray
    constructor builds it in a fraction of ``sliding_window_view``'s
    time, which adds up over one call per group and chunk. Both engines
    take their windows, and those of the first differences, from it."""
    m, t = a.shape
    view = np.ndarray((m, t - l + 1, l), a.dtype, a, 0,
                      (a.strides[0], a.itemsize, a.itemsize))
    view.flags.writeable = False
    return view


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis. Each sum runs along its own row
    in the same order whatever the batch, so a strided window and its
    gathered copy give the same bits, and its error is bounded by that
    row's values alone."""
    return np.einsum("...j,...j->...", a, a)


class _Queries:
    """The query-side terms of one (channel, length) group, built once and
    screened against every instance chunk."""

    def __init__(self, queries: np.ndarray):
        self.values = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        self.l = self.values.shape[1]
        if self.l < 1:
            raise ValueError("queries must have at least one sample")
        self.ce = np.array([complexity_estimate(q) for q in self.values])
        self.neg2 = -2.0 * self.values                       # exact: a power of two
        self.sq = _sq_norms(self.values)
        self.ce2 = np.square(self.ce)[:, None, None]
        self.ce2_floor = np.maximum(self.ce2, EPS_COMPLEXITY ** 2)

    def __len__(self) -> int:
        return len(self.values)


class _Rows:
    """One instance chunk of one channel and the running sums of its
    squares and squared first differences, from which the screen reads
    every window's squared norm and squared complexity for any length."""

    def __init__(self, values: np.ndarray, lengths: np.ndarray):
        self.values = np.ascontiguousarray(values)
        self.diffs = np.diff(self.values, axis=1)
        c, t = values.shape
        self.lengths = np.clip(lengths, 0, t)
        self.sq = np.zeros((c, t + 1))
        np.cumsum(np.square(self.values), axis=1, out=self.sq[:, 1:])
        self.dsq = np.zeros((c, t))
        np.cumsum(np.square(self.diffs), axis=1, out=self.dsq[:, 1:])
        # Sums over each row's unpadded region: they bound every running
        # sum a valid window reads.
        rows, n = np.arange(c), np.maximum(self.lengths, 1)
        self.sq_total, self.dsq_total = self.sq[rows, n], self.dsq[rows, n - 1]

    def match(self, q: _Queries, counts: dict) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-CID match of each query on each row, shape (c, n).

        A certified screen, then exact re-scores. Each window's squared CID
        gets a lower bound (see ``_lower_bounds``). Each row's screen
        minimum is re-scored exactly, and only windows whose lower bound
        reaches that distance can match it or beat it; they are re-scored
        too. The re-score is the direct difference, so every distance and
        offset is the one direct matching gives. ``counts["pairs"]`` and
        ``counts["rescored"]`` count the pairs scored and the windows
        re-scored.
        """
        c, t = self.values.shape
        n, l = len(q), q.l
        w = t - l + 1
        dists = np.full((c, n), np.inf)
        offsets = np.full((c, n), -1, dtype=np.int64)
        n_valid = np.maximum(self.lengths - (l - 1), 0)
        kk, ii = np.nonzero(np.broadcast_to(n_valid > 0, (n, c)))
        if len(kk) == 0:
            return dists, offsets
        views = _strided_windows(self.values, l), _strided_windows(self.diffs, l - 1)
        lo = self._lower_bounds(q, views[0], n_valid)              # (n, c, W)
        best = np.argmin(lo, axis=2)
        ww = best[kk, ii]
        d = _rescore(views, q, ii, ww, kk)
        # A window ties or beats the minimum only if its lower bound
        # reaches the minimum's square; the factor covers the rounding of
        # the direct engine and of the bound's last products.
        reach = np.full((n, c), -np.inf)
        reach[kk, ii] = np.square(d) * (1.0 + 8 * (l + 8) * _UNIT_ROUNDOFF)
        candidates = lo <= reach[:, :, None]
        n_extra = int(np.count_nonzero(candidates)) - len(kk)
        if n_extra:
            k3, i3, w3 = np.nonzero(candidates)
            keep = (w3 != best[k3, i3]) & (w3 < n_valid[i3])
            k3, i3, w3 = k3[keep], i3[keep], w3[keep]
            n_extra = len(k3)
            # Least distance per (query, row), then least offset on ties.
            kk, ii = np.concatenate([kk, k3]), np.concatenate([ii, i3])
            ww = np.concatenate([ww, w3])
            d = np.concatenate([d, _rescore(views, q, i3, w3, k3)])
            pair = kk * c + ii
            order = np.lexsort((ww, d, pair))
            first = order[np.r_[True, pair[order][1:] != pair[order][:-1]]]
            kk, ii, ww, d = kk[first], ii[first], ww[first], d[first]
        dists[ii, kk], offsets[ii, kk] = d, ww
        counts["pairs"] += len(kk)
        counts["rescored"] += len(kk) + n_extra
        return dists, offsets

    def _lower_bounds(self, q: _Queries, windows: np.ndarray,
                      n_valid: np.ndarray) -> np.ndarray:
        """A lower bound on the squared CID that direct matching computes
        for every (query, row, window), shape (n, c, W); +inf where the
        window leaves the row's unpadded region.

        The squared distance is the expansion ||w||^2 - 2w.q + ||q||^2, its
        dot products from one einsum over the strided windows and its
        norms from the running sums, less an allowance dE for the rounding
        of the dot product (Higham's gamma_l bound), of the running sums
        and of the expansion. A running sum's error is bounded by the row's
        own sum, so dE and the complexity allowance dC scale with the row's
        sums, not the window's (u is the unit roundoff):

            dE = 4 (t + l + 4) u (sum of the row's squares + ||q||^2)
            dC = 4 (t + 4) u (sum of the row's squared first differences)

        The window's squared complexity lies in [C - dC, C + dC], so the
        squared complexity factor max(a, b) / max(min(a, b), eps^2) is at
        least max(C - dC, ce_q^2) / max(min(C + dC, ce_q^2), eps^2). The
        bounds hold for values whose squares neither overflow nor
        underflow.
        """
        c, t = self.values.shape
        l, w = q.l, windows.shape[1]
        sq = self.sq[:, l:] - self.sq[:, :w]                           # ||w||^2
        dsq = self.dsq[:, l - 1:] - self.dsq[:, :w]                    # complexity^2
        d_c = (4 * (t + 4) * _UNIT_ROUNDOFF * self.dsq_total)[:, None]
        ce2_lo = dsq - d_c           # may be negative: the factor's max with ce_q^2 >= 0 clips it
        ce2_hi = np.maximum(dsq + d_c, EPS_COMPLEXITY ** 2)
        if n_valid.min() < w:
            invalid = np.arange(w)[None, :] >= n_valid[:, None]
            sq[invalid] = ce2_lo[invalid] = np.inf
        d_e = 4 * (t + l + 4) * _UNIT_ROUNDOFF * (self.sq_total[None, :] + q.sq[:, None])

        # No clip at 0: a negative bound is still a lower bound.
        lo = np.einsum("kj,iwj->kiw", q.neg2, windows)                 # -2 w.q
        lo += sq
        lo += (q.sq[:, None] - d_e)[:, :, None]
        factor = np.maximum(ce2_lo, q.ce2)
        lo *= factor
        lo /= np.minimum(ce2_hi, q.ce2_floor, out=factor)
        return lo


def _rescore(views: tuple[np.ndarray, np.ndarray], q: _Queries, i: np.ndarray,
             w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Direct CID of query ``k[p]`` and window ``w[p]`` of row ``i[p]``:
    the same sums, in the same order, as a strided pass over every window
    takes, so an exact match reads 0."""
    windows, dwindows = views
    ce_w = np.sqrt(_sq_norms(dwindows[i, w]))
    return np.sqrt(_sq_norms(windows[i, w] - q.values[k])) * _complexity_factor(ce_w, q.ce[k])


def match(values: np.ndarray, lengths: np.ndarray,
          queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-CID match of each query against each instance, exactly.

    Parameters
    ----------
    values : (M, T) one channel across M zero-padded instances
    lengths : (M,) unpadded lengths
    queries : (n, l) equal-length queries

    Returns ``(dists, offsets)`` of shape (M, n). A certified screen picks
    the windows that can win (see ``_Rows.match``), and each distance is
    computed by direct difference, so an exact match reads 0. Windows that
    leave the unpadded region never win, ties go to the smallest offset,
    and an instance shorter than ``l`` gets +inf and offset -1. Every sum
    runs along one window in the same order for any batch, so a result
    never depends on which other instances or queries share the call.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    q = _Queries(queries)
    m, t = values.shape
    dists = np.full((m, len(q)), np.inf)
    offsets = np.full((m, len(q)), -1, dtype=np.int64)
    if q.l > t:
        return dists, offsets
    counts = {"pairs": 0, "rescored": 0}
    for i0 in range(0, m, INSTANCE_CHUNK):
        chunk = slice(i0, i0 + INSTANCE_CHUNK)
        dists[chunk], offsets[chunk] = _Rows(values[chunk], lengths[chunk]).match(q, counts)
    return dists, offsets


def match_pool(instances, shapelets,
               counters: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Best match of every shapelet on every instance, in the given orders.

    Shapelets are grouped by (channel, length); each instance chunk's
    running sums are built once per channel and screened against every
    group on it (see ``match``). Returns ``(dists, offsets)`` of shape
    (len(instances), len(shapelets)); offset -1 marks a shapelet longer
    than the instance's unpadded region. A shapelet on a channel the
    instances do not have is refused. ``counters``, when given, has the
    (instance, shapelet) ``pairs`` scored and the windows ``rescored`` by
    direct difference added to it.
    """
    counts = {} if counters is None else counters
    for key in ("pairs", "rescored"):
        counts.setdefault(key, 0)
    instances = list(instances)
    dists = np.full((len(instances), len(shapelets)), np.inf)
    offsets = np.full(dists.shape, -1, dtype=np.int64)
    if not instances:
        return dists, offsets
    n_channels = instances[0].n_channels
    t = instances[0].values.shape[1]
    lengths = np.asarray([x.original_length for x in instances], dtype=np.int64)
    groups: dict[tuple[int, int], list[int]] = {}
    for j, s in enumerate(shapelets):
        if s.channel >= n_channels:
            raise ValidationError(f"shapelet channel {s.channel} is out of range for "
                                  f"data with {n_channels} channels")
        groups.setdefault((s.channel, len(s)), []).append(j)
    queries = {key: _Queries(np.stack([shapelets[j].values for j in idx]))
               for key, idx in sorted(groups.items()) if key[1] <= t}
    for i0 in range(0, len(instances), INSTANCE_CHUNK):
        chunk = slice(i0, i0 + INSTANCE_CHUNK)
        rows = {}
        for (channel, l), q in queries.items():
            if channel not in rows:
                rows[channel] = _Rows(np.stack([x.values[channel] for x in instances[chunk]]),
                                      lengths[chunk])
            idx = groups[(channel, l)]
            dists[chunk, idx], offsets[chunk, idx] = rows[channel].match(q, counts)
    return dists, offsets


def psd(x: LabeledSeries, channel: int, s: np.ndarray, znorm: bool = False) -> MatchResult:
    """Minimum-CID match of query ``s`` on one channel of an instance.

    A one-row call of ``match``: windows never extend into the zero-padded
    tail and ties resolve to the smallest start index. ``znorm`` is kept
    only because the benchmark's output checks pass it (as ``False``);
    matching is on raw windows, and a true value is refused.
    """
    if znorm:
        raise ValueError("z-normalized matching is not supported: windows are matched raw")
    if not 0 <= channel < x.n_channels:
        raise ValueError(f"channel {channel} out of range for {x.n_channels} channels")
    s = np.asarray(s, dtype=np.float64)
    if len(s) > x.original_length:
        raise ShapeletLengthError(
            f"shapelet of length {len(s)} does not fit instance {x.id} "
            f"(original_length {x.original_length})"
        )
    d, o = match(x.values[channel][None, :], [x.original_length], s[None, :])
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
    ce2: np.ndarray           # (M, W) squared window complexity
    inv_ce2: np.ndarray       # (M, W) 1 / max(window complexity, eps)^2


def prepare_windows(values: np.ndarray, lengths: np.ndarray, l: int) -> PreparedWindows:
    """Window statistics of one channel for all queries of length ``l``.

    The window matrix carries two extra columns, the window's squared norm
    and a constant one. Dotting a row with an extended query
    ``[-2q, 1, ||q||^2]`` then yields the squared Euclidean distance straight
    from the matmul. The windows and their complexities are the ones
    ``match`` scores, and each squared norm is summed over its own window.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    m, t = values.shape
    w = t - l + 1
    if w <= 0:
        raise ShapeletLengthError(f"query length {l} exceeds series length {t}")

    windows = _strided_windows(values, l)
    dwindows = _strided_windows(np.diff(values, axis=1), l - 1)
    flat = np.empty((m * w, l + 2))
    body = flat.reshape(m, w, l + 2)[:, :, :l]               # one copy of the windows
    np.copyto(body, windows)
    flat[:, l] = _sq_norms(body).ravel()
    flat[:, l + 1] = 1.0

    ce_w = np.sqrt(_sq_norms(dwindows))
    inv_ce2 = np.square(1.0 / np.maximum(ce_w, EPS_COMPLEXITY))

    n_valid = np.maximum(lengths - l + 1, 0)                  # valid windows per instance
    invalid = np.arange(w)[None, :] >= n_valid[:, None]       # (M, W)
    return PreparedWindows(m=m, w=w, l=l, flat=flat, invalid=invalid,
                           ce2=np.square(ce_w), inv_ce2=inv_ce2)


@dataclass(frozen=True)
class PreparedQueries:
    """One query block's terms, built once and scored against every chunk."""

    l: int
    ext: np.ndarray           # (l+2, n) extended queries [-2q, 1, ||q||^2]
    ce2: np.ndarray           # (n,) squared query complexity
    inv_ce2: np.ndarray       # (n,) 1 / max(query complexity, eps)^2

    def __len__(self) -> int:
        return self.ext.shape[1]


def prepare_queries(queries: np.ndarray) -> PreparedQueries:
    """The query-side terms of ``prepared_min_cid`` for a block of
    equal-length queries. Dotted with an extended window row (see
    ``prepare_windows``), an extended query ``[-2q, 1, ||q||^2]`` yields the
    squared Euclidean distance."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n, l = queries.shape
    dq = np.diff(queries, axis=1)
    ce_q = np.sqrt(np.einsum("ij,ij->i", dq, dq)) if l >= 2 else np.zeros(n)
    ext = np.empty((l + 2, n))
    ext[:l] = -2.0 * queries.T
    ext[l] = 1.0
    ext[l + 1] = np.einsum("ij,ij->i", queries, queries)
    return PreparedQueries(l=l, ext=ext, ce2=np.square(ce_q),
                           inv_ce2=np.square(1.0 / np.maximum(ce_q, EPS_COMPLEXITY)))


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
    if queries.l != prep.l:
        raise ValueError(f"queries of length {queries.l} do not match windows "
                         f"of length {prep.l}")
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
