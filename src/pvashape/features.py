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

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, LabeledSeries, ShapeletPool, write_ndjson
from .distance import ShapeletLengthError, match_pool

EPS_SCALE = 1e-8


def signed_log(d: np.ndarray) -> np.ndarray:
    """Odd, monotone, everywhere-defined log of a difference."""
    d = np.asarray(d, dtype=np.float64)
    return np.sign(d) * np.log1p(np.abs(d))


def shapelet_transform(x: LabeledSeries, pool: ShapeletPool,
                       znorm: bool = False) -> np.ndarray:
    """Distance of one instance to every pool shapelet, in pool order."""
    return shapelet_features([x], pool, match_pool([x], pool.shapelets, znorm))[0]


def shapelet_features(instances, pool: ShapeletPool,
                      matches: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Shapelet block of the feature matrix from ``match_pool`` output.

    Shapelets longer than an instance's unpadded region cannot match; the
    entry falls back to the largest distance the shapelet produced on the
    training set, recorded at discovery time.
    """
    dists, offsets = matches
    out = dists.copy()
    for j, s in enumerate(pool.shapelets):
        misses = offsets[:, j] < 0
        if not misses.any():
            continue
        if s.max_train_psd is None:
            x = instances[int(np.argmax(misses))]
            raise ShapeletLengthError(
                f"shapelet {j} does not fit instance {x.id} and the pool "
                "carries no fallback distance (not produced by discovery)"
            )
        out[misses, j] = s.max_train_psd
    return out


def logsig_transform(x: LabeledSeries, depth: int) -> np.ndarray:
    """Per-channel signed-log statistics up to ``depth``, channel-major.

    Output length is V * depth: channel 0's orders 1..depth, then
    channel 1's, and so on. Only the unpadded region contributes.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    out = np.zeros(x.n_channels * depth)
    for v in range(x.n_channels):
        series = x.channel(v)
        terms = _channel_terms(series, depth)
        out[v * depth : (v + 1) * depth] = terms
    return out


def _channel_terms(series: np.ndarray, depth: int) -> np.ndarray:
    n = len(series)
    terms = np.zeros(depth)
    terms[0] = float(np.sum(signed_log(np.diff(series))))
    if depth >= 2:
        # The order-n summand depends only on the last two indices; the
        # leading n-2 indices contribute a binomial count of the ways to
        # sit below the second-to-last one.
        diffs = signed_log(series[None, :] - series[:, None])
        row_sums = np.triu(diffs, k=1).sum(axis=1)        # over b > a, per a
        a = np.arange(n)
        for order in range(2, depth + 1):
            coef = np.array([math.comb(int(ai), order - 2) for ai in a], dtype=np.float64)
            terms[order - 1] = float(np.dot(coef, row_sums))
    return terms


def feature_matrix(instances, pool: ShapeletPool | None, depth: int,
                   matches: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Rows of [shapelet distances | signed-log statistics], one per
    instance. ``matches`` is ``match_pool`` output for ``pool``; without a
    pool the rows hold the statistics only."""
    blocks = [shapelet_features(instances, pool, matches)] if pool is not None else []
    stats = [logsig_transform(x, depth) for x in instances]
    blocks.append(np.stack(stats) if stats else np.zeros((0, 0)))
    return np.concatenate(blocks, axis=1)


def transform_dataset(dataset: Dataset, pool: ShapeletPool | None, depth: int,
                      include_shapelets: bool = True, znorm: bool = False,
                      threads: int = 1) -> tuple[np.ndarray, list[str], list[str]]:
    """Feature matrix for a dataset, row order matching instance order.

    Each (channel, length) group of pool shapelets is scored against the
    whole dataset in one engine call; ``threads`` runs groups concurrently.
    """
    instances = list(dataset)
    pool = pool if include_shapelets else None
    matches = (match_pool(instances, pool.shapelets, znorm, threads)
               if pool is not None else None)
    z = feature_matrix(instances, pool, depth, matches)
    return z, [x.id for x in instances], [x.label for x in instances]


@dataclass(frozen=True)
class FeatureScaler:
    """Per-coordinate standardization fitted on training features."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {"mean": [float(v) for v in self.mean],
                "std": [float(v) for v in self.std]}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureScaler":
        return cls(mean=np.asarray(d["mean"], dtype=np.float64),
                   std=np.asarray(d["std"], dtype=np.float64))


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
    write_ndjson(path, ({"id": id_, "label": lab, "z": [float(v) for v in row]}
                        for row, id_, lab in zip(z, ids, labels)))


def load_features(path) -> tuple[np.ndarray, list[str], list[str]]:
    rows, ids, labels = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            rows.append(np.asarray(rec["z"], dtype=np.float64))
            ids.append(str(rec["id"]))
            labels.append(str(rec["label"]))
    z = np.stack(rows) if rows else np.zeros((0, 0))
    return z, ids, labels
