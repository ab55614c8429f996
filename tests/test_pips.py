"""Perceptually important point extraction against per-step recomputation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pvashape.pips import pip_insertions


def _inserted(series, k):
    """Insertion order of one unpadded series."""
    series = np.asarray(series, dtype=float)
    return pip_insertions(series[None, :], [len(series)], k)[0][0].tolist()


def _final_set(series, k):
    return tuple(sorted([0, len(series) - 1] + _inserted(series, k)))


def test_chord_distance_collinear_is_zero():
    # every interior point lies on its chord, so all distances tie at
    # exactly 0 and each step takes the smallest free index
    assert _inserted(np.arange(6.0), 6) == [1, 2, 3, 4]


def test_chord_distance_horizontal_chord():
    # the spike sits 2 above the chord (0, 0) -> (4, 0), its neighbours 0;
    # after it joins, indices 1 and 3 tie at sqrt(2)/2 and 1 wins
    assert _inserted([0.0, 0, 2, 0, 0], 4) == [2, 1]


def test_chord_distance_matches_oracle():
    # one step on the slice [a, b] takes the interior point farthest from
    # the chord through a and b
    gen = np.random.default_rng(5)
    s = gen.normal(size=12)
    for a, b in [(0, 11), (2, 9), (0, 5)]:
        want = max(range(a + 1, b), key=lambda t: oracles.chord_distance(s, a, b, t))
        assert _inserted(s[a : b + 1], 3)[0] + a == want


def test_single_spike():
    assert _final_set(np.array([0.0, 0, 4, 0, 0]), 3) == (0, 2, 4)


def test_linear_series_tie_breaks_to_smallest_index():
    assert _inserted(np.arange(8, dtype=float), 4)[0] == 1


def test_second_insertion_uses_current_brackets():
    # after index 1 joins the pips, index 2 is ranked against the chord
    # (1, s[1]) -> (5, s[5]), not the original endpoints, and wins at 1.8
    s = np.array([0.0, 3, 0, 0, 1, 0])
    assert _inserted(s, 4) == [1, 2]
    assert _final_set(s, 4) == (0, 1, 2, 5)


def test_incremental_yields_k_minus_two_sorted_states():
    gen = np.random.default_rng(1)
    s = gen.normal(size=20)
    added = _inserted(s, 7)
    assert len(added) == 5 == len(set(added))
    assert all(0 < t < 19 for t in added)
    assert len(_final_set(s, 7)) == 7


def test_matches_oracle_on_random_series():
    gen = np.random.default_rng(9)
    for trial in range(40):
        n = int(gen.integers(5, 40))
        if trial % 2:
            s = gen.integers(0, 4, size=n).astype(float)  # plenty of ties
        else:
            s = gen.normal(size=n)
        k = int(gen.integers(3, min(10, n) + 1))
        want = oracles.pip_steps(s, k)
        got = _inserted(s, k)
        for i, (w_add, w_pips) in enumerate(want):
            assert got[i] == w_add
            assert tuple(sorted([0, n - 1] + got[: i + 1])) == w_pips


def test_extract_pips_full_set():
    s = np.array([0.0, 3, 0, 0, 1, 0])
    assert _final_set(s, 4) == (0, 1, 2, 5)


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        _inserted(np.zeros(10), 2)
    with pytest.raises(ValueError):
        _inserted(np.zeros(4), 5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(3, 10))
def test_batch_matches_oracle_on_ragged_batches(seed, rows, k):
    # padded rows of different lengths, mostly small integer alphabets (ties)
    gen = np.random.default_rng(seed)
    t = int(gen.integers(k, 40))
    lengths = gen.integers(k, t + 1, size=rows)
    values = np.zeros((rows, t))
    for i, n in enumerate(lengths):
        values[i, :n] = gen.integers(0, 4, size=n) if i % 3 else gen.normal(size=n)
    got, start, end, exists = pip_insertions(values, lengths, k)
    assert got.shape == (rows, k - 2) and start.shape == end.shape == (rows, k - 2, 3)
    for i, n in enumerate(lengths):
        steps = oracles.pip_steps(values[i, :n], k)
        assert got[i].tolist() == [added for added, _ in steps]
        # the spans [P[idx - z], P[idx + 2 - z]] of each sorted point set
        for step, (added, points) in enumerate(steps):
            idx = points.index(added)
            for z in range(3):
                there = idx - z >= 0 and idx + 2 - z < len(points)
                assert exists[i, step, z] == there
                if there:
                    assert (start[i, step, z], end[i, step, z]) == (
                        points[idx - z], points[idx + 2 - z])
