"""Shapelet and log-signature feature extraction, scaling, serialization."""
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import make_series
from pvashape import features
from pvashape.core import Dataset, Shapelet, ShapeletPool
from pvashape.distance import ShapeletLengthError, match_pool
from pvashape.features import (FeatureScaler, apply_scaler, fit_scaler,
                               load_features, logsig_transform, save_features,
                               shapelet_features, signed_log, transform_dataset)


def test_signed_log_is_odd_and_zero_at_zero():
    assert signed_log(np.array(0.0)) == 0.0
    assert signed_log(np.array(math.e - 1)) == pytest.approx(1.0, abs=1e-12)
    d = np.array([0.5, -0.5, 3.0, -3.0])
    out = signed_log(d)
    assert np.array_equal(out[::2], -out[1::2])


def test_logsig_known_values():
    x = make_series([0, 1, 3])
    out = logsig_transform([x], 2)[0]
    assert out[0] == pytest.approx(math.log(6), abs=1e-7)   # ln2 + ln3
    assert out[1] == pytest.approx(math.log(24), abs=1e-7)  # ln2 + ln4 + ln3


def test_logsig_constant_channel_is_zero():
    x = make_series([4.2] * 9)
    assert np.array_equal(logsig_transform([x], 3)[0], np.zeros(3))


def test_logsig_translation_invariant():
    # integer samples shift without rounding, so invariance is bit-exact
    gen = np.random.default_rng(1)
    ints = gen.integers(-5, 6, size=(2, 15)).astype(np.float64)
    assert np.array_equal(logsig_transform([make_series(ints)], 3)[0],
                          logsig_transform([make_series(ints + 100.0)], 3)[0])
    vals = gen.normal(size=(2, 15))
    assert np.allclose(logsig_transform([make_series(vals)], 3)[0],
                       logsig_transform([make_series(vals + 100.0)], 3)[0],
                       rtol=1e-9, atol=1e-9)


def test_logsig_ignores_padding():
    gen = np.random.default_rng(2)
    vals = gen.normal(size=12)
    a = logsig_transform([make_series(vals, pad_to=20)], 2)[0]
    b = logsig_transform([make_series(vals, pad_to=40)], 2)[0]
    assert np.array_equal(a, b)


def test_logsig_channel_major_layout():
    x = make_series([[0, 1, 3], [5, 5, 5]])
    out = logsig_transform([x], 2)[0]
    assert len(out) == 4
    assert out[0] == pytest.approx(math.log(6), abs=1e-7)
    assert np.array_equal(out[2:], [0.0, 0.0])


def test_logsig_matches_oracle_random():
    gen = np.random.default_rng(3)
    for _ in range(20):
        n = int(gen.integers(3, 25))
        depth = int(gen.integers(1, 5))
        vals = gen.normal(size=n) * 3
        out = logsig_transform([make_series(vals)], depth)[0]
        want = oracles.logsig_terms(vals, depth)
        assert np.allclose(out, want, rtol=1e-10, atol=1e-10)


def test_logsig_rejects_bad_depth():
    with pytest.raises(ValueError):
        logsig_transform([make_series([1, 2, 3])], 0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_matches_loop(instances, depths=(1, 2, 3, 4)):
    """Batched statistics equal the per-instance loop bit for bit."""
    for depth in depths:
        want = np.stack([oracles.logsig_loop(x, depth) for x in instances])
        assert np.array_equal(_bits(logsig_transform(instances, depth)), _bits(want))


def _chunk_rows(n):
    return max(1, features.LOGSIG_CHUNK_BYTES // (8 * n * n))


@pytest.mark.parametrize("rows", [lambda c: 1, lambda c: c - 1, lambda c: c,
                                  lambda c: c + 1, lambda c: 3 * c + 2],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+2"])
def test_logsig_matches_loop_across_chunk_boundaries(rows):
    n = 150
    gen = np.random.default_rng(6)
    scales = 10.0 ** np.arange(-3, 4)
    batch = [make_series(gen.normal(size=n) * scales[i % len(scales)], id=f"x{i}")
             for i in range(rows(_chunk_rows(n)))]
    _assert_matches_loop(batch)


def test_logsig_matches_loop_on_mixed_lengths_scales_and_padding():
    gen = np.random.default_rng(7)
    batch = []
    for i in range(40):
        n = int(gen.integers(3, 60))
        vals = gen.normal(size=(3, n)) * 10.0 ** gen.integers(-3, 4, size=(3, 1))
        if i % 5 == 0:
            vals[i % 3] = gen.normal() * 100.0          # a constant channel
        batch.append(make_series(vals, id=f"x{i}", pad_to=n + int(gen.integers(0, 30))))
    _assert_matches_loop(batch)


def test_logsig_per_chunk_stacking_keeps_the_whole_stack_s_bits():
    gen = np.random.default_rng(9)
    batch = []
    for i in range(3 * _chunk_rows(150) + 5):
        n = int(gen.choice([30, 90, 150, 150, 150]))
        vals = gen.normal(size=(3, n)) * 10.0 ** gen.integers(-3, 4, size=(3, 1))
        batch.append(make_series(vals, id=f"x{i}", original_length=n - int(gen.integers(0, 4)),
                                 pad_to=150))
    for depth in (1, 2, 3, 4):
        want = oracles.logsig_stacked(batch, depth, features.LOGSIG_CHUNK_BYTES)
        assert np.array_equal(_bits(logsig_transform(batch, depth)), _bits(want))


def test_logsig_stacks_no_more_than_one_chunk_at_a_time():
    """The rows are copied one chunk at a time, so a batch whose rows
    alone exceed the chunk budget twice over stays within it."""
    n, channels = 150, 4
    count = 2 * features.LOGSIG_CHUNK_BYTES // (8 * n * channels) + 1
    row = np.linspace(-1.0, 1.0, n)
    batch = [make_series(np.tile(row, (channels, 1)), id=f"x{i}") for i in range(count)]
    tracemalloc.start()
    try:
        logsig_transform(batch, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < features.LOGSIG_CHUNK_BYTES


def test_logsig_constant_channels_match_loop():
    batch = [make_series(np.full((2, 150), c), id=f"x{i}")
             for i, c in enumerate([0.0, -0.0, 4.2, -1e3])]
    _assert_matches_loop(batch)


def test_logsig_row_bits_do_not_depend_on_the_batch():
    gen = np.random.default_rng(8)
    batch = [make_series(gen.normal(size=(2, 150)) * 10.0 ** (i % 7 - 3), id=f"x{i}",
                         original_length=int(gen.integers(140, 151)), pad_to=150)
             for i in range(3 * _chunk_rows(150) + 2)]
    whole = logsig_transform(batch, 3)
    one_by_one = np.concatenate([logsig_transform([x], 3) for x in batch])
    reversed_ = logsig_transform(batch[::-1], 3)[::-1]
    assert np.array_equal(_bits(whole), _bits(one_by_one))
    assert np.array_equal(_bits(whole), _bits(reversed_))


def _pool(shapelets):
    from pvashape.core import order_labels
    return ShapeletPool(shapelets=tuple(shapelets), per_class_quota=1,
                        labels=order_labels([s.label for s in shapelets]),
                        config={})


def _shapelet(values, channel=0, label="NP", sentinel=5.0):
    values = np.asarray(values, dtype=np.float64)
    return Shapelet(values=values, channel=channel, source_id="s", start=0,
                    end=len(values) - 1, label=label, max_train_psd=sentinel)


def _shapelet_row(x, pool):
    """The shapelet block of a one-instance dataset's feature row."""
    z, _, _ = transform_dataset(Dataset((x,)), pool, depth=1)
    assert z.shape == (1, len(pool) + x.n_channels)
    return z[0, :len(pool)]


def test_shapelet_transform_exact_match_is_zero():
    x = make_series([2, 9, 4, 1])
    pool = _pool([_shapelet([9, 4]), _shapelet([2, 9, 4], label="AC")])
    out = _shapelet_row(x, pool)
    assert out.shape == (2,)
    assert out[0] == 0.0 and out[1] == 0.0


def test_shapelet_transform_matches_enumeration():
    gen = np.random.default_rng(4)
    x = make_series(gen.normal(size=(2, 14)), id="e0")
    pool = _pool([_shapelet(gen.normal(size=4), channel=1),
                  _shapelet(gen.normal(size=3), channel=0, label="AC")])
    out = _shapelet_row(x, pool)
    for j, s in enumerate(pool.shapelets):
        want, _ = oracles.psd(x.values[s.channel], 14, s.values)
        assert out[j] == pytest.approx(want, abs=1e-9)


def test_shapelet_transform_uses_sentinel_when_too_long():
    x = make_series([1, 2, 3])
    pool = _pool([_shapelet([0, 1, 2, 3, 4], sentinel=7.5)])
    assert _shapelet_row(x, pool)[0] == 7.5


def test_shapelet_transform_without_sentinel_raises():
    x = make_series([1, 2, 3])
    pool = _pool([_shapelet([0, 1, 2, 3, 4], sentinel=None)])
    with pytest.raises(ShapeletLengthError):
        _shapelet_row(x, pool)


def test_transform_dataset_concatenation():
    x = make_series([[1, 2, 4], [0, 0, 0]])
    pool = _pool([_shapelet([2, 4])])
    z, _, _ = transform_dataset(Dataset((x,)), pool, depth=2)
    assert z.shape == (1, 1 + 4)
    shapelets = shapelet_features([x], pool, match_pool([x], pool.shapelets))[0]
    assert np.array_equal(z[0], np.concatenate([shapelets, logsig_transform([x], 2)[0]]))
    no_sha, _, _ = transform_dataset(Dataset((x,)), pool, depth=2, include_shapelets=False)
    assert np.array_equal(no_sha, z[:, 1:])


def test_transform_dataset_order_and_reruns():
    gen = np.random.default_rng(5)
    rows = tuple(make_series(gen.normal(size=(2, 10)), id=f"x{i}",
                             label="NP" if i % 2 else "AC") for i in range(6))
    ds = Dataset(rows)
    pool = _pool([_shapelet(gen.normal(size=3), channel=1)])
    z1, ids1, labs1 = transform_dataset(ds, pool, depth=2)
    z2, ids2, labs2 = transform_dataset(ds, pool, depth=2)
    assert ids1 == [f"x{i}" for i in range(6)]
    assert labs1 == [x.label for x in ds]
    assert np.array_equal(z1, z2) and ids1 == ids2


def test_scaler_two_points():
    scaler = fit_scaler(np.array([[0.0], [2.0]]))
    out = apply_scaler(np.array([[0.0], [2.0]]), scaler)
    assert np.array_equal(out, [[-1.0], [1.0]])


def test_scaler_constant_coordinate_floored():
    scaler = fit_scaler(np.array([[3.0, 1.0], [3.0, 2.0]]))
    out = apply_scaler(np.array([[3.0, 1.5]]), scaler)
    assert out[0, 0] == 0.0


def test_scaler_needs_two_rows():
    with pytest.raises(ValueError):
        fit_scaler(np.array([[1.0, 2.0]]))


def test_scaler_round_trip():
    scaler = fit_scaler(np.array([[0.0, 5.0], [2.0, 9.0], [4.0, 1.0]]))
    again = FeatureScaler.from_dict(scaler.to_dict())
    x = np.array([[1.0, 2.0]])
    assert np.array_equal(apply_scaler(x, scaler), apply_scaler(x, again))


def test_features_ndjson_round_trip(tmp_path):
    z = np.array([[1.5, -2.0], [0.0, 3.25]])
    p = tmp_path / "f.ndjson"
    save_features(p, z, ["a", "b"], ["NP", "AC"])
    z2, ids, labels = load_features(p)
    assert np.array_equal(z, z2)
    assert ids == ["a", "b"] and labels == ["NP", "AC"]
