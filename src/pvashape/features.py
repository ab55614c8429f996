"""Feature transforms: shapelet distances plus signed-log statistics.

The shapelet part of a feature vector is the instance's best-match
distance to every pool shapelet. The statistical part summarizes each
channel with one scalar per order: order 1 sums a signed smooth log of
consecutive increments, order n >= 2 sums it over the last step of every
increasing index tuple of size n. The smooth log sign(d) * ln(1 + |d|)
keeps the "logarithmic difference" behaviour while being defined (and
odd) for every real difference.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Dataset, ShapeletPool, ValidationError, read_ndjson, refuse_malformed,
                   write_ndjson)
from .distance import match_pool

EPS_SCALE = 1e-8
# Byte budget of the (rows, n * n) signed-log difference buffer that
# logsig_transform fills per chunk: near the cache size, where fewer and
# larger numpy calls no longer pay for the memory traffic.
LOGSIG_CHUNK_BYTES = 3 << 20


def signed_log(d: np.ndarray) -> np.ndarray:
    """Odd, monotone, everywhere-defined log of a difference."""
    d = np.asarray(d, dtype=np.float64)
    return np.sign(d) * np.log1p(np.abs(d))


def shapelet_features(pool: ShapeletPool,
                      matches: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Shapelet block of the feature matrix from ``match_pool`` output.

    Shapelets longer than an instance's unpadded region cannot match; the
    entry falls back to the largest distance the shapelet produced on the
    training set, recorded at discovery time.
    """
    dists, offsets = matches
    fallback = np.array([s.max_train_psd for s in pool.shapelets], dtype=np.float64)
    return np.where(offsets < 0, fallback, dists)


def logsig_transform(instances, depth: int) -> np.ndarray:
    """Per-channel signed-log statistics up to ``depth``, one row per instance.

    Row layout is channel-major: channel 0's orders 1..depth, then
    channel 1's, and so on. Only the unpadded region contributes. A row's
    bits do not depend on which other instances share the batch.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    instances = list(instances)
    if not instances:
        return np.zeros((0, 0))
    n_channels = instances[0].n_channels
    out = np.zeros((len(instances), n_channels, depth))
    by_length: dict[int, list[int]] = {}
    for i, x in enumerate(instances):
        by_length.setdefault(x.original_length, []).append(i)
    for n, rows in by_length.items():
        series = [row for i in rows for row in instances[i].values[:, :n]]
        out[rows] = _series_terms(series, depth).reshape(len(rows), n_channels, depth)
    return out.reshape(len(instances), n_channels * depth)


@functools.lru_cache(maxsize=16)
def _upper_triangle(n: int, depth: int):
    """Index pairs a < b of an n-sample series, their flat positions
    a * n + b, and per order >= 2 the weights comb(a, order - 2). They are
    read-only, as every call shares them."""
    a_idx, b_idx = np.triu_indices(n, 1)
    flat = a_idx * n + b_idx
    a = np.arange(n)
    coef = tuple(np.array([math.comb(int(ai), order - 2) for ai in a], dtype=np.float64)
                 for order in range(2, depth + 1))
    for table in (a_idx, b_idx, flat, *coef):
        table.setflags(write=False)
    return a_idx, b_idx, flat, coef


def _series_terms(series, depth: int) -> np.ndarray:
    """(rows, depth) statistics of a sequence of equal-length series.

    Orders >= 2 weight the row sums of the n x n matrix of signed-log
    differences (zero on and below the diagonal) by a binomial count: the
    order-n summand depends only on the last two indices, and the leading
    n-2 indices contribute the ways to sit below the second-to-last one.
    Rows are stacked and walked in chunks whose matrices fit
    LOGSIG_CHUNK_BYTES, every order's temporaries included. The matrix
    and the pairwise buffers are allocated once per call and filled in
    place: per-chunk temporaries of that size are mapped and unmapped by
    malloc each time, which doubled this function's time in a process
    that had not yet freed a larger block.
    """
    r, n = len(series), len(series[0])
    terms = np.zeros((r, depth))
    step = max(1, LOGSIG_CHUNK_BYTES // (8 * n * n))
    if depth >= 2:
        a_idx, b_idx, flat, coef = _upper_triangle(n, depth)
        diffs = np.zeros((min(step, r), n * n))
        pairs, signs = np.empty((2, min(step, r), len(flat)))
    for lo in range(0, r, step):
        s = np.stack(series[lo : lo + step])
        k = len(s)
        terms[lo : lo + k, 0] = signed_log(np.diff(s, axis=1)).sum(axis=1)
        if depth < 2:
            continue
        # signed_log of the pairwise differences, op for op; "clip" keeps
        # np.take from buffering, and every index is in range.
        d, sign = pairs[:k], signs[:k]
        np.subtract(np.take(s, b_idx, axis=1, out=d, mode="clip"),
                    np.take(s, a_idx, axis=1, out=sign, mode="clip"), out=d)
        np.sign(d, out=sign)
        diffs[:k, flat] = np.multiply(sign, np.log1p(np.abs(d, out=d), out=d), out=d)
        row_sums = diffs[:k].reshape(k, n, n).sum(axis=2)     # over b > a, per a
        # One dot per (row, order): a batched product would sum in
        # another order and change the last bits.
        for i in range(k):
            for order in range(2, depth + 1):
                terms[lo + i, order - 1] = np.dot(coef[order - 2], row_sums[i])
    return terms


def feature_matrix(instances, pool: ShapeletPool | None, depth: int,
                   matches: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Rows of [shapelet distances | signed-log statistics], one per
    instance. ``matches`` is ``match_pool`` output for ``pool``; without a
    pool the rows hold the statistics only."""
    blocks = [shapelet_features(pool, matches)] if pool is not None else []
    blocks.append(logsig_transform(instances, depth))
    return np.concatenate(blocks, axis=1)


def transform_dataset(dataset: Dataset, pool: ShapeletPool | None, depth: int,
                      include_shapelets: bool = True, znorm: bool = False,
                      counters: dict | None = None) -> tuple[np.ndarray, list[str], list[str]]:
    """Feature matrix for a dataset, row order matching instance order.

    Pool shapelets are matched by ``match_pool``, which adds its counts
    to ``counters`` when one is given. ``znorm`` is kept only because the
    benchmark's output checks pass it (as ``False``); matching is on raw
    windows, and a true value is refused.
    """
    if znorm:
        raise ValueError("z-normalized matching is not supported: windows are matched raw")
    instances = list(dataset)
    pool = pool if include_shapelets else None
    matches = match_pool(instances, pool.shapelets, counters) if pool is not None else None
    z = feature_matrix(instances, pool, depth, matches)
    return z, [x.id for x in instances], [x.label for x in instances]


@dataclass(frozen=True)
class FeatureScaler:
    """Per-coordinate standardization fitted on training features."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureScaler":
        """A scaler whose mean and std are finite lists of one length, every
        std positive; anything else is refused."""
        with refuse_malformed("scaler"):
            mean = np.asarray(d["mean"], dtype=np.float64)
            std = np.asarray(d["std"], dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValidationError("scaler mean and std are not two lists of one length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValidationError("scaler holds NaN or infinite values")
        if not np.all(std > 0):
            raise ValidationError("scaler std has entries <= 0")
        return cls(mean=mean, std=std)


def fit_scaler(features: np.ndarray) -> FeatureScaler:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("need at least two feature vectors to fit a scaler")
    mean = features.mean(axis=0)
    std = np.maximum(features.std(axis=0), EPS_SCALE)
    return FeatureScaler(mean=mean, std=std)


def apply_scaler(features: np.ndarray, scaler: FeatureScaler) -> np.ndarray:
    return (np.asarray(features, dtype=np.float64) - scaler.mean) / scaler.std


# ---------------------------------------------------------------------------
# Feature-matrix NDJSON dump
# ---------------------------------------------------------------------------

def save_features(path, z: np.ndarray, ids: list[str], labels: list[str]) -> None:
    write_ndjson(path, ({"id": id_, "label": lab, "z": row}
                        for row, id_, lab in zip(np.asarray(z).tolist(), ids, labels)))


def load_features(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Features file as (matrix, ids, labels). A record without its fields,
    or whose ``z`` is not finite or not the first's width, is refused."""
    rows, ids, labels = [], [], []
    for lineno, rec in read_ndjson(path):
        where = f"{path}:{lineno}"
        with refuse_malformed(f"{where}: features record"):
            z = np.asarray(rec["z"], dtype=np.float64)
            ids.append(str(rec["id"]))
            labels.append(str(rec["label"]))
        if z.ndim != 1 or not np.all(np.isfinite(z)):
            raise ValidationError(f"{where}: z is not a list of finite numbers")
        if rows and len(z) != len(rows[0]):
            raise ValidationError(
                f"{where}: {len(z)} features, but the first record has {len(rows[0])}")
        rows.append(z)
    z = np.stack(rows) if rows else np.zeros((0, 0))
    return z, ids, labels
