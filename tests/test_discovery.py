"""Candidate generation, information gain, and pool discovery."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series
from pvashape.core import Config, Dataset
from pvashape.discovery import (_gain_block, discover, generate_candidates,
                                load_pool, pool_from_dict, pool_to_dict, save_pool)
from pvashape.distance import match_pool, psd
from pvashape.pipeline import SynthConfig, generate_synthetic


def _gain(pairs):
    """(gain, threshold) of one row of (distance, is-target) pairs through
    the block search discovery runs."""
    d = np.array([p[0] for p in pairs], dtype=np.float64)
    y = np.array([bool(p[1]) for p in pairs])
    gains, thresholds = _gain_block(d[None, :], y[None, :])
    return float(gains[0]), float(thresholds[0])


def test_gain_pure_split():
    got = _gain([(0.1, True), (0.2, True), (0.9, False), (1.0, False)])
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    assert got[1] == pytest.approx(0.55, abs=1e-12)


def test_gain_single_label_degenerate():
    assert _gain([(0.3, True), (0.7, True)]) == (0.0, 0.3)


def test_gain_interleaved_best_is_one_vs_three():
    # a 1|3 split at 0.15 still buys 0.311 bits; exhaustive search agrees
    pairs = [(0.1, True), (0.9, True), (0.2, False), (1.0, False)]
    want = oracles.info_gain(pairs)
    got = _gain(pairs)
    assert want[0] == pytest.approx(0.3112781244591328, abs=1e-12)
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_gain_all_distances_equal():
    assert _gain([(0.5, True), (0.5, False), (0.5, True)]) == (0.0, 0.5)


def test_gain_matches_exhaustive_oracle_random():
    gen = np.random.default_rng(2)
    for trial in range(50):
        n = int(gen.integers(2, 21))
        if trial % 3 == 0:
            dists = (gen.integers(0, 6, size=n) * 0.1).tolist()  # duplicates
        else:
            dists = gen.random(n).tolist()
        labels = (gen.random(n) < 0.5).tolist()
        want = oracles.info_gain(list(zip(dists, labels)))
        got = _gain(list(zip(dists, labels)))
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 24),
       st.sampled_from(["integer", "quarter-grid", "constant", "uniform"]),
       st.sampled_from([0.0, 0.2, 0.6, 1.0]))
def test_gain_block_matches_oracle_row_by_row(seed, rows, m, kind, inf_share):
    # multi-row blocks with tied, integer-grid and +inf distances; +inf
    # marks an instance the candidate does not fit and leaves the split
    gen = np.random.default_rng(seed)
    if kind == "integer":
        d = gen.integers(0, 4, size=(rows, m)).astype(float)
    elif kind == "quarter-grid":
        d = gen.integers(0, 9, size=(rows, m)) / 4.0
    elif kind == "constant":
        d = np.full((rows, m), 0.75)
    else:
        d = gen.uniform(0.0, 2.0, size=(rows, m))
    d[gen.random((rows, m)) < inf_share] = np.inf
    targets = gen.random((rows, m)) < gen.uniform(0.0, 1.0, size=(rows, 1))
    gains, thresholds = _gain_block(d, targets)
    for r in range(rows):
        pairs = [(float(v), bool(t)) for v, t in zip(d[r], targets[r]) if np.isfinite(v)]
        want_gain, want_thr = oracles.info_gain(pairs) if pairs else (0.0, 0.0)
        assert gains[r] == pytest.approx(want_gain, abs=1e-12)
        assert thresholds[r] == want_thr


def test_candidates_single_spike():
    x = make_series([0, 0, 4, 0, 0])
    cands = generate_candidates([x], 3)
    assert len(cands) == 1
    c = cands[0]
    assert (c.start, c.end, c.channel) == (0, 4, 0)
    assert np.array_equal(c.values, [0, 0, 4, 0, 0])
    assert c.source_id == x.id and c.label == x.label


def test_candidates_respect_bounds_and_dedup():
    gen = np.random.default_rng(4)
    for trial in range(20):
        n = int(gen.integers(6, 30))
        k = int(gen.integers(3, min(8, n) + 1))
        x = make_series(gen.normal(size=(2, n)), id=f"c{trial}")
        cands = generate_candidates([x], k)
        seen = set()
        per_channel = {0: 0, 1: 0}
        for c in cands:
            key = (c.channel, c.start, c.end)
            assert key not in seen
            seen.add(key)
            per_channel[c.channel] += 1
            assert 0 <= c.start < c.end < n
            assert len(c) >= 3
            assert np.array_equal(c.values, x.values[c.channel, c.start : c.end + 1])
        for v in per_channel.values():
            assert v <= 3 * (k - 2)


def _motif_dataset():
    gen = np.random.default_rng(6)
    rows = []
    for i, pos in enumerate([2, 5, 8]):
        base = gen.normal(scale=0.05, size=16)
        base[pos : pos + 3] += [0, 4, 0]
        rows.append(make_series(base, label="AC", id=f"a{i}"))
    for i in range(3):
        rows.append(make_series(gen.normal(scale=0.05, size=16), label="NP",
                                id=f"b{i}"))
    return Dataset(tuple(rows))


def test_discover_finds_the_motif():
    ds = _motif_dataset()
    pool = discover(ds, Config(k=4, g=8, seed=0))
    top = pool.of_class("AC")[0]
    assert top.info_gain == pytest.approx(1.0, abs=1e-12)
    assert top.values.max() > 3.5
    # its split threshold separates the classes on recomputed distances
    for x in ds:
        d = psd(x, top.channel, top.values).psd
        assert (d <= top.split_threshold) == (x.label == "AC")


def test_discover_one_per_class_when_g_equals_classes():
    ds = _motif_dataset()
    pool = discover(ds, Config(k=4, g=2, seed=0))
    assert len(pool) == 2
    assert len(pool.of_class("AC")) == 1
    assert len(pool.of_class("NP")) == 1
    assert pool.per_class_quota == 1


def test_discover_records_max_train_psd():
    ds = _motif_dataset()
    pool = discover(ds, Config(k=4, g=2, seed=0))
    for s in pool.shapelets:
        dists = [psd(x, s.channel, s.values).psd for x in ds
                 if x.original_length >= len(s)]
        assert s.max_train_psd == pytest.approx(max(dists), rel=1e-9, abs=1e-9)


def test_pool_numbers_come_from_exact_distances():
    # the kernel that ranks candidates is off by ~1e-6 near a self-match;
    # the recorded gain, threshold and maximum must be the exact engine's
    ds = generate_synthetic(SynthConfig(n_instances=40, t=60, seed=5))
    pool = discover(ds, Config(k=6, g=8, seed=0))
    dists, _ = match_pool(ds, pool.shapelets)
    for j, s in enumerate(pool.shapelets):
        pairs = [(float(d), x.label == s.label) for d, x in zip(dists[:, j], ds)
                 if np.isfinite(d)]
        assert (s.info_gain, s.split_threshold) == _gain(pairs)
        assert s.max_train_psd == max(d for d, _ in pairs)


def test_discover_thread_count_does_not_change_pool():
    ds = _motif_dataset()
    a = pool_to_dict(discover(ds, Config(k=4, g=6, seed=1, threads=1)))
    b = pool_to_dict(discover(ds, Config(k=4, g=6, seed=1, threads=4)))
    assert a == b


def test_discover_skips_instances_shorter_than_k():
    rows = list(_motif_dataset().instances)
    rows.append(make_series([1, 2, 3], label="AC", id="short", pad_to=16))
    pool = discover(Dataset(tuple(rows)), Config(k=4, g=8, seed=0))
    assert all(s.source_id != "short" for s in pool.shapelets)


def test_pool_round_trip(tmp_path):
    pool = discover(_motif_dataset(), Config(k=4, g=6, seed=0))
    p = tmp_path / "pool.json"
    save_pool(p, pool)
    again = load_pool(p)
    assert pool_to_dict(again) == pool_to_dict(pool)
    assert pool_from_dict(pool_to_dict(pool)).labels == pool.labels
