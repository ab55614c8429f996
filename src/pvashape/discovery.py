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

import hashlib
import json
import logging
from dataclasses import dataclass, replace

import numpy as np

from .core import (Config, Dataset, LabeledSeries, Shapelet, ShapeletPool, ValidationError,
                   json_integer, order_labels, read_json, refuse_malformed, write_json)
from . import distance
from .distance import QUERY_BLOCK, match_pool, prepare_queries, prepare_windows, prepared_min_cid
from .pipeline import align_channels
from .pips import pip_insertions

log = logging.getLogger(__name__)

MIN_CANDIDATE_LENGTH = 3
# Gains at or below this are treated as "no informative split": genuinely
# nonzero gains on small sets sit orders of magnitude above float noise.
GAIN_EPS = 1e-12
# Added to the gain bound: its table form and `_gain_block`'s entropy form
# of one gain differ by rounding far below this.
BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Candidates:
    """Discovery's candidates as one table, a row per span.

    ``source`` indexes ``instances`` and ``label`` indexes ``labels``; a
    row's values are ``instances[source].values[channel, start : end + 1]``.
    Nothing copies them but `shapelets`, which discovery calls on its pool.
    """

    instances: tuple[LabeledSeries, ...]
    labels: tuple[str, ...]
    source: np.ndarray
    channel: np.ndarray
    start: np.ndarray
    end: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def length(self) -> np.ndarray:
        return self.end - self.start + 1

    def shapelets(self, idx) -> list[Shapelet]:
        """Rows ``idx`` as shapelets not yet scored."""
        out = []
        for i in idx:
            x = self.instances[self.source[i]]
            channel, start, end = int(self.channel[i]), int(self.start[i]), int(self.end[i])
            out.append(Shapelet(values=x.values[channel, start : end + 1].copy(),
                                channel=channel, source_id=x.id, start=start, end=end,
                                label=x.label))
        return out


def generate_candidates(instances, k: int) -> Candidates:
    """All unique three-point spans produced while extracting ``k`` points
    from every instance at least ``k`` long, as one table.

    ``instances`` share one (channels, time) shape, as in a Dataset; the
    points of every channel of every instance are extracted in one batch.
    After each insertion at sorted position ``idx``, the spans
    ``[P[idx - z], P[idx + 2 - z]]`` for ``z`` in 0..2 (where they exist)
    are emitted; spans shorter than 3 and duplicates within an instance are
    dropped. Rows come in instance, channel, insertion, ``z`` order.
    """
    instances = tuple(instances)
    labels = order_labels(x.label for x in instances)
    code = {lab: j for j, lab in enumerate(labels)}
    label = np.array([code[x.label] for x in instances], dtype=np.int64)
    sources = np.flatnonzero([x.original_length >= k for x in instances])
    if not sources.size:
        none = np.zeros(0, dtype=np.int64)
        return Candidates(instances, labels, none, none, none, none, none)
    v, t = instances[0].values.shape
    lengths = np.repeat([instances[i].original_length for i in sources], v)
    _, start, end, keep = pip_insertions(
        np.concatenate([instances[i].values for i in sources]), lengths, k)
    keep &= end - start + 1 >= MIN_CANDIDATE_LENGTH
    flat = np.flatnonzero(keep)
    row = flat // (3 * (k - 2))                 # the (instance, channel) row of each span
    start, end = start.ravel()[flat], end.ravel()[flat]
    # A packed (row, start, end) key names one span of one channel of one instance.
    first = np.sort(np.unique((row * t + start) * t + end, return_index=True)[1])
    row, start, end = row[first], start[first], end[first]
    source = sources[row // v]
    return Candidates(instances, labels, source=source, channel=row % v, start=start,
                      end=end, label=label[source])


def _entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, with 0 log 0 = 0."""
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p)) - (q * np.log2(q))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def _parent_entropy(t_total: np.ndarray, n_valid: np.ndarray) -> np.ndarray:
    """(B, 1) entropy of each row's labels over the instances it fits: the
    gain of a perfect split, and more than any computed gain of the row."""
    t_tot = t_total[:, None].astype(np.float64)
    n_tot = n_valid[:, None].astype(np.float64)
    return _entropy(t_tot / np.maximum(n_tot, 1.0))


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
        h_parent = _parent_entropy(t_total, n_valid)
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


def discover(dataset: Dataset, config: Config,
             counters: dict | None = None) -> ShapeletPool:
    """Run candidate generation, scoring and per-class selection.

    Deterministic for a fixed (dataset, config).
    ``counters``, when given, receives the screen's counts (candidates,
    groups, pruned candidates per class, chunk matmuls run and skipped,
    bound checks, one per probed query block, the probe offset, 0 when the
    probe pass scans nothing, the candidates rescanned from instance 0, and
    each class's margin: its quota-th screen gain and the best screen gain
    outside the pool, null where there is none).
    """
    dataset = align_channels(dataset, config)
    if len(dataset) == 0:
        raise ValueError("cannot discover shapelets on an empty dataset")
    classes = dataset.labels
    quota = max(config.g // len(classes), 1)

    short = sum(x.original_length < config.k for x in dataset)
    if short:
        log.warning("skipped %d instances shorter than k=%d during discovery", short, config.k)
    candidates = generate_candidates(dataset, config.k)
    if not len(candidates):
        raise ValueError("no shapelet candidates could be generated")

    counters = {} if counters is None else counters
    ranked = _screen_gains(dataset, candidates, config, quota, counters)
    log.info("discovery screen: %s", counters)
    chosen: list[Shapelet] = []
    for lab in classes:
        if len(ranked[lab]) < quota:        # then it holds all of the class
            log.warning("class %s supplied %d candidates for a quota of %d",
                        lab, len(ranked[lab]), quota)
        chosen.extend(candidates.shapelets(ranked[lab]))

    # The recorded numbers come from the exact engine the transform uses,
    # not from the screen that ranked the candidates.
    labels = np.asarray([x.label for x in dataset])
    dists = match_pool(dataset, chosen)[0].T   # (G, M)
    gains, thresholds = _gain_block(dists, np.stack([labels == c.label for c in chosen]))
    max_psds = np.max(np.where(np.isfinite(dists), dists, -np.inf), axis=1)
    pool = tuple(
        replace(c, info_gain=float(g), split_threshold=float(th), max_train_psd=float(mx))
        for c, g, th, mx in zip(chosen, gains, thresholds, max_psds)
    )
    return ShapeletPool(shapelets=pool, per_class_quota=quota, labels=classes, config=config)


def _gain_bound(dists: np.ndarray, targets: np.ndarray, unseen_targets: np.ndarray,
                unseen_others: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Most gain each row can reach once its unseen instances are scored
    (Ye & Keogh's optimistic bound, in exact form).

    dists, targets : (B, S) distances and one-vs-rest labels of the seen
        instances the candidate fits.
    unseen_targets, unseen_others : (B,) counts of the unseen instances it
        fits.
    cap : (B,) `_parent_entropy` of the instances it fits, which no gain
        `_gain_block` computes exceeds.

    A threshold puts a prefix of the sorted seen distances and some of the
    unseen instances on its left. Gain is convex in the left side's
    (target, other) counts, so for each prefix it peaks where all unseen
    targets sit on one side and all unseen others on one side. The best of
    those vertices plus BOUND_SLACK, capped at ``cap``, is the bound. Ties
    among seen distances are ignored, which only loosens it.
    """
    b, s = dists.shape
    if s == 0:                      # nothing seen: a perfect split is still open
        return cap.copy()
    # Sort labels with their distances in one key: a distance's bits (after
    # +0.0 folds -0.0 into 0.0) order like the distance, and the label
    # takes the freed lowest bit.
    key = np.add(dists, 0.0).view(np.uint64) << np.uint64(1)
    key |= targets
    key.sort(axis=1)
    y = (key & np.uint64(1)).astype(np.int64)
    t_seen = np.zeros((b, s + 1), dtype=np.int64)
    np.cumsum(y, axis=1, out=t_seen[:, 1:])
    # Along a run of one label the left counts move in a straight line, on
    # which gain is convex: only the prefixes that end a run can peak.
    ends = np.ones((b, s + 1), dtype=bool)
    ends[:, 1:-1] = y[:, 1:] != y[:, :-1]
    flat = np.flatnonzero(ends)
    row, i = np.divmod(flat, s + 1)
    tl0 = t_seen.ravel()[flat]
    ol0 = i - tl0
    t_all = t_seen[:, -1] + unseen_targets
    n_all = s + unseen_targets + unseen_others
    o_all = n_all - t_all
    ut, uo = unseen_targets[row], unseen_others[row]
    tr0, or0 = t_all[row] - tl0, o_all[row] - ol0
    # n * entropy = xlog[n] - xlog[t] - xlog[n - t] with xlog[x] = x log2 x.
    xlog = np.arange(n_all.max() + 1, dtype=np.float64)
    xlog *= np.log2(np.maximum(xlog, 1.0))
    least = np.inf                              # least n-weighted child entropy
    for move_t in (0, 1) if unseen_targets.any() else (0,):
        for move_o in (0, 1) if unseen_others.any() else (0,):
            tl, ol = tl0 + move_t * ut, ol0 + move_o * uo
            tr, orr = tr0 - move_t * ut, or0 - move_o * uo
            least = np.minimum(least, xlog[tl + ol] - xlog[tl] - xlog[ol]
                               + xlog[tr + orr] - xlog[tr] - xlog[orr])
    least = np.minimum.reduceat(least, np.flatnonzero(i == 0))
    gain = (xlog[n_all] - xlog[t_all] - xlog[o_all] - least) / n_all
    return np.minimum(gain + BOUND_SLACK, cap)


def _minority_first(dataset: Dataset) -> np.ndarray:
    """Instance order with every non-majority instance first, each part in
    dataset order: once they are scored, every unseen instance has one
    label, which keeps the gain bound tight."""
    return np.argsort([x.label == dataset.majority for x in dataset], kind="stable")


def _tie_ranks(length: np.ndarray, start: np.ndarray, source: np.ndarray,
               ids: list[str]) -> np.ndarray:
    """Each candidate's place among candidates of equal gain: shorter
    first, then earlier start, source id ``ids[source]`` in string order,
    and candidate index, which the stable sort keeps last."""
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    ranks = np.empty(len(length), dtype=np.int64)
    ranks[np.lexsort((id_rank[source], start, length))] = np.arange(len(length))
    return ranks


def _ranked(idx: np.ndarray, gain: np.ndarray, tie_rank: np.ndarray) -> np.ndarray:
    """Candidates ``idx`` best first: higher gain, then lower `_tie_ranks`."""
    return idx[np.lexsort((tie_rank[idx], -gain[idx]))]


def _probe_offset(m: int, n_minority: int) -> int:
    """The first chunk end at which a scan of ``m`` instances whose first
    ``n_minority`` are non-majority has seen at least as many majority
    instances as non-majority ones, or 0 when that lies past ``m // 2``.

    The probe pass scores every candidate up to it. Earlier, too few
    majority distances are seen for the bound to rule most candidates out,
    and the completion pass would rescan nearly all of them. Later, the
    probe itself scans most of the split; at 0 there is no probe pass.
    """
    step = distance.INSTANCE_CHUNK
    probe = -(-max(2 * n_minority, 1) // step) * step
    return probe if probe <= m // 2 else 0


def _beats(bound: np.ndarray, floor: np.ndarray, tie_worse: np.ndarray) -> np.ndarray:
    """Whether a candidate whose gain is at most ``bound`` can still rank
    above its class's quota-th key, whose gain is ``floor``: ``tie_worse``
    marks candidates that lose a tie at that gain by `_ranked`'s order."""
    return (bound > floor) | ((bound == floor) & ~tie_worse)


class _BlockScreen:
    """One query block's prepared queries, one-vs-rest ``targets``, the
    instances it ``fit``s and its distances across the instance chunks
    ``[0, stop)`` of one (channel, length) group, all in scan order. Only
    its ``live`` columns are scored; ``cap`` is each column's gain of a
    perfect split."""

    def __init__(self, idx, queries, targets, fit, cap, stop, live):
        self.idx, self.queries, self.targets = np.asarray(idx), queries, targets
        self.fit, self.cap, self.live = fit, cap, live
        self.dists = np.empty((stop, len(idx)))     # (stop, B)

    def bound(self) -> np.ndarray:
        """`_gain_bound` of every column given its distances to the first
        ``stop`` instances."""
        stop = len(self.dists)
        seen = np.flatnonzero(self.fit[:stop])
        unseen_targets = np.count_nonzero(self.targets[:, stop:] & self.fit[stop:], axis=1)
        unseen_others = np.count_nonzero(self.fit[stop:]) - unseen_targets
        return _gain_bound(self.dists[seen].T, self.targets[:, seen], unseen_targets,
                           unseen_others, self.cap)


def _screen_gains(dataset: Dataset, candidates: Candidates, config: Config,
                  quota: int, counters: dict) -> dict[str, list[int]]:
    """Indices of each class's top ``quota`` candidates (all of them, if
    fewer), best first by `_ranked` on their information gain on the
    matrix-product kernel's distances, which agree with the exact engine
    except close to 0. ``candidates`` is the table of ``dataset``'s spans.

    Instances are scanned non-majority first, one INSTANCE_CHUNK at a time:
    windows are prepared per (channel, length) group and chunk, and each
    query block's prepared queries are scored against each chunk with one
    kernel call on its live columns.

    A probe pass first scores every candidate up to `_probe_offset` and
    keeps only its gain bound there, the one place a bound is computed
    from distances; at offset 0 there is nothing to score, and every bound
    is the gain of a perfect split. Groups are then completed in
    descending order of their best probe bound (stable, so (channel,
    length) order at offset 0), which makes each class's key, its quota-th
    candidate among the groups already completed, high early. A candidate
    whose probe bound cannot beat its key is never rescanned; the others
    are scored on every instance, and a block with none of them runs no
    kernel call.

    Pruning is exact: every key is one a candidate reached, so the top
    ``quota`` keys do not depend on the completion order; and a distance
    depends only on its chunk and block, not on the other live columns, so
    every gain that is computed, and the pool, are the ones an unpruned
    scan in the same instance order gives. Against another order or chunk
    size a distance keeps its bits only while its matmul keeps its shape,
    so it may differ in the last bits, which can flip a ranking near-tie.
    """
    order = _minority_first(dataset)
    m = len(order)
    scan_row = np.empty(m, dtype=np.int64)
    scan_row[order] = np.arange(m)                     # dataset index -> scan position
    lengths = np.asarray([dataset[i].original_length for i in order], dtype=np.int64)
    split = np.stack([dataset[i].values for i in order], axis=1)   # (channel, m, time)
    n_labels = len(candidates.labels)
    class_targets = (np.asarray([dataset[i].label for i in order])
                     == np.asarray(candidates.labels)[:, None])    # (labels, m)
    chunk = distance.INSTANCE_CHUNK
    probe = _probe_offset(m, m - dataset.class_counts[dataset.majority])

    label, start, length = candidates.label, candidates.start, candidates.length
    row = scan_row[candidates.source]
    tie_rank = _tie_ranks(length, start, candidates.source, [x.id for x in dataset])
    gains = np.full(len(candidates), -np.inf)
    bounds = np.full(len(candidates), np.inf)          # unknown until probed
    best = [np.zeros(0, dtype=np.int64) for _ in range(n_labels)]
    kth = np.full(n_labels, -1)                        # each full class's quota-th
    tally = dict.fromkeys(("matmuls", "matmuls_skipped", "bound_checks", "rescanned"), 0)

    by_group = np.lexsort((length, candidates.channel))     # stable: candidate order
    cuts = 1 + np.flatnonzero(np.diff(candidates.channel[by_group])
                              | np.diff(length[by_group]))
    groups = [((int(candidates.channel[idx[0]]), int(length[idx[0]])), idx)
              for idx in np.split(by_group, cuts)]

    def screened(channel, l, idx, stop):
        """The group's block screens, their live columns scored on the
        chunks before ``stop``. A column is live if its probe bound, capped
        at the gain of a perfect split over the instances it fits, `_beats`
        its class's key from the groups completed so far; a block with none
        is left out, its kernel calls counted as skipped. Queries and each
        chunk's windows are sliced from the channel's rows; fixed block
        boundaries and chunk offsets keep every matmul shape independent of
        pruning."""
        rows = split[channel]
        fit = lengths >= l
        caps = _parent_entropy(np.count_nonzero(class_targets & fit, axis=1),
                               np.full(n_labels, np.count_nonzero(fit)))[:, 0]
        n_chunks = -(-stop // chunk)
        out = []
        for j in range(0, len(idx), QUERY_BLOCK):
            block = idx[j : j + QUERY_BLOCK]
            key = kth[label[block]]
            full = key >= 0
            floor = np.where(full, gains[key], -np.inf)
            tie_worse = full & (tie_rank[block] > tie_rank[key])
            cap = caps[label[block]]
            live = _beats(np.minimum(bounds[block], cap), floor, tie_worse)
            if not live.any():
                tally["matmuls_skipped"] += n_chunks
                continue
            queries = rows[row[block, None], start[block, None] + np.arange(l)]
            out.append(_BlockScreen(block, prepare_queries(queries),
                                    class_targets[label[block]], fit, cap, stop, live))
        if not out:
            return out
        tally["matmuls"] += n_chunks * len(out)
        for i0 in range(0, stop, chunk):
            part = slice(i0, i0 + chunk)
            prep = prepare_windows(rows[part], lengths[part], l)
            for sc in out:
                prepared_min_cid(prep, sc.queries, sc.live, out=sc.dists[part])
        return out

    if probe:
        for (channel, l), idx in groups:
            probed = screened(channel, l, idx, probe)      # no keys yet: all live
            for sc in probed:
                bounds[sc.idx] = sc.bound()
            tally["bound_checks"] += len(probed)
    groups.sort(key=lambda group: -bounds[group[1]].max())

    for (channel, l), idx in groups:
        group = screened(channel, l, idx, m)
        for sc in group:
            tally["rescanned"] += int(np.count_nonzero(sc.live))
            gains[sc.idx[sc.live]] = _gain_block(sc.dists[:, sc.live].T,
                                                 sc.targets[sc.live])[0]
        scored = idx[np.isfinite(gains[idx])]
        for c in np.unique(label[scored]):
            best[c] = _ranked(np.concatenate((best[c], scored[label[scored] == c])),
                              gains, tie_rank)[:quota]
            kth[c] = best[c][-1] if len(best[c]) == quota else -1

    outside = np.isfinite(gains)
    pruned = np.bincount(label[~outside], minlength=n_labels).tolist()
    outside[np.concatenate(best)] = False
    margin = {}
    for c, lab in enumerate(candidates.labels):
        rest = gains[outside & (label == c)]
        margin[lab] = {"quota_gain": float(gains[kth[c]]) if kth[c] >= 0 else None,
                       "best_outside": float(rest.max()) if rest.size else None}
    counters.update(candidates=len(candidates), groups=len(groups),
                    pruned=dict(zip(candidates.labels, pruned)), probe_offset=probe,
                    margin=margin, **tally)
    return {lab: best[c].tolist() for c, lab in enumerate(candidates.labels)}


# ---------------------------------------------------------------------------
# Pool serialization
# ---------------------------------------------------------------------------

def pool_to_dict(pool: ShapeletPool) -> dict:
    return {
        "config": pool.config.to_dict(),
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


def _shapelet_from_record(j: int, rec: dict) -> Shapelet:
    """Pool entry ``j``; its channel and span must be JSON integers."""
    channel, start, end = (json_integer(rec[name], f"shapelet {j} {name}")
                           for name in ("channel", "start", "end"))
    try:
        return Shapelet(values=rec["values"], channel=channel, source_id=str(rec["source_id"]),
                        start=start, end=end, label=rec["label"],
                        info_gain=rec["info_gain"], split_threshold=rec["split_threshold"],
                        max_train_psd=rec["max_train_psd"])
    except ValidationError as err:
        raise ValidationError(f"shapelet {j} {err}") from err


def pool_from_dict(d: dict) -> ShapeletPool:
    with refuse_malformed("pool"):
        shapelets = tuple(_shapelet_from_record(j, rec) for j, rec in enumerate(d["shapelets"]))
        quota = json_integer(d["per_class_quota"], "per_class_quota")
        try:
            config = Config.from_dict(d["config"])
        except ValidationError as err:
            raise ValidationError(
                f"pool config: {err}; rewrite the pool with `discover` or `run-all`") from err
        return ShapeletPool(shapelets=shapelets, per_class_quota=quota, labels=d["labels"],
                            config=config)


def pool_digest(pool: ShapeletPool) -> str:
    """sha256 of a pool's content, independent of file formatting."""
    blob = json.dumps(pool_to_dict(pool), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_pool(path, pool: ShapeletPool) -> None:
    write_json(path, pool_to_dict(pool))


def load_pool(path) -> ShapeletPool:
    return read_json(path, pool_from_dict)
