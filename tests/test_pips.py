"""Perceptually important point extraction against per-step recomputation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pvashape.pips import (extract_pips, extract_pips_incremental, pip_insertions,
                           reconstruction_distance)


def test_chord_distance_collinear_is_zero():
    assert reconstruction_distance(np.array([0.0, 1, 2, 3]), 0, 3, 1) == 0.0


def test_chord_distance_horizontal_chord():
    s = np.array([0.0, 0, 2, 0, 0])
    assert reconstruction_distance(s, 0, 4, 2) == pytest.approx(2.0, abs=1e-12)
    assert reconstruction_distance(s, 0, 4, 1) == 0.0


def test_chord_distance_matches_oracle():
    gen = np.random.default_rng(5)
    s = gen.normal(size=12)
    for a, b, t in [(0, 11, 4), (2, 9, 5), (0, 5, 1)]:
        assert reconstruction_distance(s, a, b, t) == pytest.approx(
            oracles.chord_distance(s, a, b, t), abs=1e-12)


def test_single_spike():
    assert extract_pips(np.array([0.0, 0, 4, 0, 0]), 3) == (0, 2, 4)


def test_linear_series_tie_breaks_to_smallest_index():
    states = list(extract_pips_incremental(np.arange(8, dtype=float), 4))
    assert states[0].last_added[0] == 1


def test_second_insertion_uses_current_brackets():
    # after index 1 joins the pips, index 2 is ranked against the chord
    # (1, s[1]) -> (5, s[5]), not the original endpoints, and wins at 1.8
    s = np.array([0.0, 3, 0, 0, 1, 0])
    states = list(extract_pips_incremental(s, 4))
    assert states[0].last_added[0] == 1
    assert states[1].last_added[0] == 2
    assert states[1].pips == (0, 1, 2, 5)


def test_incremental_yields_k_minus_two_sorted_states():
    gen = np.random.default_rng(1)
    s = gen.normal(size=20)
    states = list(extract_pips_incremental(s, 7))
    assert len(states) == 5
    for st in states:
        assert list(st.pips) == sorted(st.pips)
        assert st.pips[0] == 0 and st.pips[-1] == 19
        assert st.pips[st.last_added[1]] == st.last_added[0]
    assert len(states[-1].pips) == 7


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
        got = list(extract_pips_incremental(s, k))
        for (w_add, w_pips), st in zip(want, got):
            assert st.last_added[0] == w_add
            assert st.pips == w_pips


def test_extract_pips_full_set():
    s = np.array([0.0, 3, 0, 0, 1, 0])
    assert extract_pips(s, 4) == (0, 1, 2, 5)


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        extract_pips(np.zeros(10), 2)
    with pytest.raises(ValueError):
        extract_pips(np.zeros(4), 5)


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
    got = pip_insertions(values, lengths, k)
    assert got.shape == (rows, k - 2)
    for i, n in enumerate(lengths):
        want = [added for added, _ in oracles.pip_steps(values[i, :n], k)]
        assert got[i].tolist() == want
