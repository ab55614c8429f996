"""Perceptually important point extraction.

Starting from the two endpoints, indices are added one at a time; each
step picks the point with the largest perpendicular distance to the chord
between its two bracketing selected points (smallest index on ties). The
insertion order is returned, with the spans of three consecutive points
around each inserted one, because candidate generation consumes the point
set after every insertion.
"""
from __future__ import annotations

import numpy as np


def pip_insertions(values: np.ndarray, lengths, k: int):
    """Indices inserted by ``k - 2`` steps on every row of a padded batch,
    and the spans around them.

    values : (S, T) zero-padded series; lengths : (S,) unpadded lengths.
    Returns ``(added, start, end, exists)``. ``added`` is (S, k - 2): series
    indices in insertion order. The others are (S, k - 2, 3): the span
    ``[P[idx - z], P[idx + 2 - z]]`` of the sorted point set P after each
    insertion at sorted position ``idx``, for ``z`` in 0..2, and whether it
    exists. Each step scores every point of every row at once by its
    perpendicular distance to the chord through its current brackets, time
    in index units; the padded tail counts as selected, so it never wins
    and never brackets a real point. The first maximum of a row is its
    smallest index, so ties go to the smallest index. The inserted point's
    brackets span z = 1, and their own outer brackets end z = 2 and z = 0.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    lengths = np.asarray(lengths, dtype=np.int64)
    s, t = values.shape
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if s and lengths.min() < k:
        raise ValueError(f"series of length {lengths.min()} cannot host {k} points")
    idx = np.arange(t)
    rows = np.arange(s)
    selected = idx[None, :] >= lengths[:, None] - 1
    selected[:, 0] = True
    a = np.zeros((s, t), dtype=np.int64)          # selected bracket left of each point
    b = np.full((s, t), t - 1, dtype=np.int64)    # ... and right of it
    added = np.empty((s, k - 2), dtype=np.int64)
    start, end = np.empty((2, s, k - 2, 3), dtype=np.int64)
    exists = np.ones((s, k - 2, 3), dtype=bool)
    for step in range(k - 2):
        a[:, 1:] = np.maximum.accumulate(np.where(selected, idx, 0), axis=1)[:, :-1]
        b[:, :-1] = np.minimum.accumulate(
            np.where(selected, idx, t - 1)[:, ::-1], axis=1)[:, -2::-1]
        ya = np.take_along_axis(values, a, axis=1)
        dx = (b - a).astype(np.float64)
        dy = np.take_along_axis(values, b, axis=1) - ya
        d = np.abs(dy * (idx - a) - dx * (values - ya)) / np.hypot(dx, dy)
        d[selected] = -1.0
        best = np.argmax(d, axis=1)
        left, right = a[rows, best], b[rows, best]
        added[:, step] = best
        start[:, step] = np.stack([best, left, a[rows, left]], axis=1)
        end[:, step] = np.stack([b[rows, right], right, best], axis=1)
        exists[:, step, 0] = right < lengths - 1
        exists[:, step, 2] = left > 0
        selected[rows, best] = True
    return added, start, end, exists
