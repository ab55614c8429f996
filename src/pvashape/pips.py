"""Perceptually important point extraction.

Starting from the two endpoints, indices are added one at a time; each
step picks the point with the largest perpendicular distance to the chord
between its two bracketing selected points (smallest index on ties). The
incremental states are exposed because candidate generation consumes the
point set after every insertion.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class PipState:
    """Selected indices after one insertion.

    pips : strictly increasing tuple, always containing both endpoints
    last_added : (series index, position of that index within ``pips``)
    """

    pips: tuple[int, ...]
    last_added: tuple[int, int]


def reconstruction_distance(series: np.ndarray, a: int, b: int, t: int) -> float:
    """Perpendicular distance of point ``(t, series[t])`` to the chord
    through ``(a, series[a])`` and ``(b, series[b])``; time in index units."""
    series = np.asarray(series, dtype=np.float64)
    dx = float(b - a)
    dy = float(series[b] - series[a])
    num = abs(dy * (t - a) - dx * (series[t] - series[a]))
    return num / float(np.hypot(dx, dy))


def pip_insertions(values: np.ndarray, lengths, k: int) -> np.ndarray:
    """Indices inserted by ``k - 2`` steps on every row of a padded batch.

    values : (S, T) zero-padded series; lengths : (S,) unpadded lengths.
    Returns (S, k - 2) series indices in insertion order. Each step scores
    every point of every row at once against the chord of its current
    brackets, with the same formula as ``reconstruction_distance``; the
    padded tail counts as selected, so it never wins and never brackets a
    real point. The first maximum of a row is its smallest index, which is
    the scalar scan's tie-break.
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
    out = np.empty((s, k - 2), dtype=np.int64)
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
        out[:, step] = best
        selected[rows, best] = True
    return out


def extract_pips_incremental(series: np.ndarray, k: int) -> Iterator[PipState]:
    """Yield the point set after each of the ``k - 2`` insertions.

    Requires ``k >= 3`` and ``len(series) >= k``; the caller passes the
    unpadded channel so padding never attracts points. A one-row call of
    ``pip_insertions``.
    """
    series = np.asarray(series, dtype=np.float64)
    pips = [0, len(series) - 1]
    for t in pip_insertions(series, [len(series)], k)[0].tolist():
        idx = bisect.bisect_left(pips, t)
        pips.insert(idx, t)
        yield PipState(pips=tuple(pips), last_added=(t, idx))


def extract_pips(series: np.ndarray, k: int) -> tuple[int, ...]:
    """Final point set only."""
    state = None
    for state in extract_pips_incremental(series, k):
        pass
    return state.pips if state is not None else (0, len(series) - 1)
