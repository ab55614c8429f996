"""Offline shapelet discovery.

Candidates are the spans of three consecutive perceptually important
points, collected after every point insertion on every channel of every
instance. Each candidate is ranked by the information gain of the best
one-vs-rest threshold split on its subsequence distances to the whole
training set, screened with a matrix-product kernel, and the top
candidates per class form the pool. The gain, threshold and largest
training distance recorded for each pool shapelet are then recomputed
from the exact matching engine's distances.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import logging
import math
from dataclasses import replace

import numpy as np

from .core import (Config, Dataset, Shapelet, ShapeletPool, ValidationError,
                   read_json, refuse_malformed, result_config, write_json)
from .distance import (QUERY_BLOCK, match_pool, prefix_sums, prepare_windows,
                       prepared_min_cid)
from .parallel import thread_map
from .pips import pip_insertions

log = logging.getLogger(__name__)

MIN_CANDIDATE_LENGTH = 3
# Gains at or below this are treated as "no informative split": genuinely
# nonzero gains on small sets sit orders of magnitude above float noise.
GAIN_EPS = 1e-12


def generate_candidates(instances, k: int) -> list[Shapelet]:
    """All unique three-point spans produced while extracting ``k`` points,
    as shapelets not yet scored.

    ``instances`` share one (channels, time) shape, as in a Dataset; the
    points of every channel of every instance are extracted in one batch.
    After each insertion at sorted position ``idx``, the spans
    ``[P[idx - z], P[idx + 2 - z]]`` for ``z`` in 0..2 (where they exist)
    are emitted; spans shorter than 3 and duplicates within an instance are
    dropped. Candidates come in instance, channel, insertion, ``z`` order.
    """
    instances = list(instances)
    if not instances:
        return []
    v = instances[0].n_channels
    lengths = np.repeat([x.original_length for x in instances], v)
    added = pip_insertions(np.concatenate([x.values for x in instances]), lengths, k)
    out: list[Shapelet] = []
    for i, x in enumerate(instances):
        seen: set[tuple[int, int, int]] = set()
        for ch in range(v):
            p = [0, x.original_length - 1]
            for t in added[i * v + ch].tolist():
                idx = bisect.bisect_left(p, t)
                p.insert(idx, t)
                for z in (0, 1, 2):
                    i0, i2 = idx - z, idx + 2 - z
                    if i0 < 0 or i2 > len(p) - 1:
                        continue
                    start, end = p[i0], p[i2]
                    if end - start + 1 < MIN_CANDIDATE_LENGTH or (ch, start, end) in seen:
                        continue
                    seen.add((ch, start, end))
                    out.append(Shapelet(
                        values=x.values[ch, start : end + 1].copy(), channel=ch,
                        source_id=x.id, start=start, end=end, label=x.label,
                    ))
    return out


def _entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, with 0 log 0 = 0."""
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p)) - (q * np.log2(q))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def _gain_block(dists: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gain search over a block of candidates.

    dists : (B, M) distance matrix, +inf marking instances the candidate
        does not fit (excluded from the split).
    targets : (B, M) one-vs-rest labels.

    Returns per-row (gain in bits, threshold). Thresholds are midpoints
    between consecutive distinct sorted distances, the smallest on gain
    ties. A row with no split of positive gain (one class, tied distances,
    uninformative order) gets (0, its minimum distance).
    """
    b, m = dists.shape
    # Any sort order works: a split falls only between distinct distances,
    # where the count of targets to its left does not depend on how ties
    # were ordered, so the faster unstable sort gives the same results.
    order = np.argsort(dists, axis=1)
    d_sorted = np.take_along_axis(dists, order, axis=1)
    y_sorted = np.take_along_axis(targets, order, axis=1)
    valid = np.isfinite(d_sorted)                       # sorted to a prefix
    n_valid = valid.sum(axis=1)
    t_total = (y_sorted & valid).sum(axis=1)

    cum_t = np.cumsum(y_sorted & valid, axis=1).astype(np.float64)
    pos = np.arange(1, m + 1, dtype=np.float64)

    n_left = np.broadcast_to(pos[None, :-1], (b, m - 1)) if m > 1 else np.zeros((b, 0))
    t_left = cum_t[:, :-1]
    n_tot = n_valid[:, None].astype(np.float64)
    t_tot = t_total[:, None].astype(np.float64)
    n_right = n_tot - n_left
    t_right = t_tot - t_left

    with np.errstate(invalid="ignore", divide="ignore"):
        h_parent = _entropy(t_tot / np.maximum(n_tot, 1.0))
        h_left = _entropy(t_left / np.maximum(n_left, 1.0))
        h_right = _entropy(t_right / np.maximum(n_right, 1.0))
        gains = h_parent - (n_left / n_tot) * h_left - (n_right / n_tot) * h_right

    # A split after sorted position i needs both sides non-empty and a
    # strictly larger next distance (equal values cannot be separated).
    splittable = (
        (np.arange(1, m)[None, :] < n_valid[:, None])
        & (d_sorted[:, 1:] > d_sorted[:, :-1])
        & np.isfinite(d_sorted[:, 1:])
    ) if m > 1 else np.zeros((b, 0), dtype=bool)
    gains = np.where(splittable, gains, -1.0)

    if m > 1 and gains.shape[1] > 0:
        best = np.argmax(gains, axis=1)                 # first max: smallest threshold
        best_gain = np.take_along_axis(gains, best[:, None], axis=1)[:, 0]
        left_d = np.take_along_axis(d_sorted, best[:, None], axis=1)[:, 0]
        right_d = np.take_along_axis(d_sorted, best[:, None] + 1, axis=1)[:, 0]
        thresholds = 0.5 * (left_d + right_d)
    else:
        best_gain = np.full(b, -1.0)
        thresholds = np.zeros(b)

    min_d = np.where(n_valid > 0, d_sorted[:, 0], 0.0)
    degenerate = best_gain <= GAIN_EPS
    gains_out = np.where(degenerate, 0.0, best_gain)
    thresholds_out = np.where(degenerate, min_d, thresholds)
    return gains_out, thresholds_out


def discover(dataset: Dataset, config: Config) -> ShapeletPool:
    """Run candidate generation, scoring and per-class selection.

    Deterministic for a fixed (dataset, config): candidate order, scoring
    blocks and tie-breaking are all schedule-independent.
    """
    if len(dataset) == 0:
        raise ValueError("cannot discover shapelets on an empty dataset")
    classes = dataset.labels
    quota = max(config.g // len(classes), 1)

    sources = [x for x in dataset if x.original_length >= config.k]
    if len(sources) < len(dataset):
        log.warning("skipped %d instances shorter than k=%d during discovery",
                    len(dataset) - len(sources), config.k)
    candidates = generate_candidates(sources, config.k)
    if not candidates:
        raise ValueError("no shapelet candidates could be generated")

    screen = _screen_gains(dataset, candidates, config)
    chosen: list[Shapelet] = []
    for lab in classes:
        idx = [i for i, c in enumerate(candidates) if c.label == lab]
        idx.sort(key=lambda i: (-screen[i], len(candidates[i]),
                                candidates[i].start, candidates[i].source_id))
        if len(idx) < quota:
            log.warning("class %s supplied %d candidates for a quota of %d",
                        lab, len(idx), quota)
        chosen.extend(candidates[i] for i in idx[:quota])

    # The recorded numbers come from the exact engine the transform uses,
    # not from the screen that ranked the candidates.
    labels = np.asarray([x.label for x in dataset])
    dists = match_pool(dataset, chosen, config.znorm, config.threads)[0].T   # (G, M)
    gains, thresholds = _gain_block(dists, np.stack([labels == c.label for c in chosen]))
    max_psds = np.max(np.where(np.isfinite(dists), dists, -np.inf), axis=1)
    pool = tuple(
        replace(c, info_gain=float(g), split_threshold=float(th), max_train_psd=float(mx))
        for c, g, th, mx in zip(chosen, gains, thresholds, max_psds)
    )
    return ShapeletPool(shapelets=pool, per_class_quota=quota,
                        labels=classes, config=result_config(config))


def _screen_gains(dataset: Dataset, candidates: list[Shapelet],
                  config: Config) -> np.ndarray:
    """Information gain of every candidate on the matrix-product kernel's
    distances, which agree with the exact engine except close to 0."""
    lengths = np.asarray([x.original_length for x in dataset], dtype=np.int64)
    labels = np.asarray([x.label for x in dataset])
    gains = np.zeros(len(candidates))

    groups: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(candidates):
        groups.setdefault((c.channel, len(c)), []).append(i)

    # One window-matrix preparation per (channel, length) group, then
    # fixed-size query blocks against it. Fixed block boundaries keep every
    # matmul shape independent of the thread count, which keeps results
    # bit-identical across schedules. Groups come sorted by channel, so a
    # channel's rows and raw-window prefix sums are built once, sliced for
    # each of its lengths, and dropped before the next channel's.
    rows_channel = None
    for (channel, l), idx in sorted(groups.items()):
        if channel != rows_channel:
            rows = sums = None                  # free the last channel's first
            rows = np.stack([x.values[channel] for x in dataset])
            sums = None if config.znorm else prefix_sums(rows)
            rows_channel = channel
        prep = prepare_windows(rows, lengths, l, znorm=config.znorm, sums=sums)
        blocks = [idx[j : j + QUERY_BLOCK] for j in range(0, len(idx), QUERY_BLOCK)]

        def run_block(block, prep=prep):
            queries = np.stack([candidates[i].values for i in block])
            targets = np.stack([labels == candidates[i].label for i in block])
            return block, _gain_block(prepared_min_cid(prep, queries).T, targets)[0]

        for block, g in thread_map(run_block, blocks, config.threads):
            gains[block] = g
    return gains


# ---------------------------------------------------------------------------
# Pool serialization
# ---------------------------------------------------------------------------

def pool_to_dict(pool: ShapeletPool) -> dict:
    return {
        "config": pool.config,
        "labels": list(pool.labels),
        "per_class_quota": pool.per_class_quota,
        "shapelets": [
            {
                "values": s.values.tolist(),
                "channel": s.channel,
                "source_id": s.source_id,
                "start": s.start,
                "end": s.end,
                "label": s.label,
                "info_gain": s.info_gain,
                "split_threshold": s.split_threshold,
                "max_train_psd": s.max_train_psd,
            }
            for s in pool.shapelets
        ],
    }


def _integer(value, what: str) -> int:
    """``value`` when it is a JSON integer; a fraction or a bool is refused
    rather than truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} is {value!r}, not an integer")
    return value


def _shapelet_from_record(j: int, rec: dict) -> Shapelet:
    """Pool entry ``j``; its values and numbers must be finite, its values
    one list, its channel and span integers."""
    values = np.asarray(rec["values"], dtype=np.float64)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ValidationError(f"shapelet {j} values are not a list of finite numbers")
    channel, start, end = (_integer(rec[name], f"shapelet {j} {name}")
                           for name in ("channel", "start", "end"))
    numbers = {name: float(rec[name]) for name in ("info_gain", "split_threshold")}
    if rec.get("max_train_psd") is not None:
        numbers["max_train_psd"] = float(rec["max_train_psd"])
    for name, value in numbers.items():
        if not math.isfinite(value):
            raise ValidationError(f"shapelet {j} {name} is {value}, not a finite number")
    return Shapelet(values=values, channel=channel, source_id=str(rec["source_id"]),
                    start=start, end=end, label=str(rec["label"]), **numbers)


def pool_from_dict(d: dict) -> ShapeletPool:
    with refuse_malformed("pool"):
        shapelets = tuple(_shapelet_from_record(j, rec) for j, rec in enumerate(d["shapelets"]))
        quota = _integer(d["per_class_quota"], "per_class_quota")
        return ShapeletPool(shapelets=shapelets, per_class_quota=quota,
                            labels=tuple(d["labels"]), config=dict(d.get("config", {})))


def pool_digest(pool: ShapeletPool) -> str:
    """sha256 of a pool's content, independent of file formatting."""
    blob = json.dumps(pool_to_dict(pool), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_pool(path, pool: ShapeletPool) -> None:
    write_json(path, pool_to_dict(pool))


def load_pool(path) -> ShapeletPool:
    return read_json(path, pool_from_dict)
