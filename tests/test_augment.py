"""Shapelet-guided noise masks and minority-class rebalancing."""
import dataclasses
import math

import numpy as np
import pytest

from conftest import make_series
from pvashape import discovery
from pvashape.augment import _mask, balance_dataset
from pvashape.core import Config, Dataset, Shapelet, ShapeletPool, order_labels
from pvashape.distance import match_pool
from pvashape.pipeline import SynthConfig, generate_synthetic
from pvashape.workflow import Run, fit


def _shapelet(values, channel=0, label="NP", source="s0", start=0):
    values = np.asarray(values, dtype=np.float64)
    return Shapelet(values=values, channel=channel, source_id=source,
                    start=start, end=start + len(values) - 1, label=label, max_train_psd=1.0)


def _match_mask(x, s):
    """The mask ``balance_dataset`` builds for one (instance, shapelet)
    pair, from the same ``match_pool`` distance and offset."""
    dists, offsets = match_pool([x], [s])
    d, o = dists[0, 0], int(offsets[0, 0])
    return _mask(x, s, d, o), d, o


def test_mask_zero_on_exact_match_span():
    x = make_series([3, 7, 1, 5], pad_to=6)
    s = _shapelet([7, 1])
    mask, dist, offset = _match_mask(x, s)
    assert dist == 0.0 and offset == 1
    assert np.array_equal(mask[0], [1, 0, 0, 1, 0, 0])


def test_mask_carries_match_distance_on_span():
    x = make_series([0, 1, 3])
    mask, _, offset = _match_mask(x, _shapelet([0, 2]))
    assert offset == 1
    assert mask[0, 0] == 1.0
    assert mask[0, 1] == pytest.approx(math.sqrt(2), abs=1e-7)
    assert mask[0, 2] == pytest.approx(math.sqrt(2), abs=1e-7)


def test_mask_zero_on_padded_tail_every_channel():
    x = make_series([[1, 2, 3], [4, 5, 6]], original_length=3, pad_to=8)
    mask, _, _ = _match_mask(x, _shapelet([9, 9], channel=1))
    assert np.all(mask[:, 3:] == 0.0)
    assert np.all(mask[0, :3] == 1.0)  # other channel untouched


def test_mask_only_touches_shapelet_channel():
    x = make_series([[1, 2, 3, 4], [1, 2, 3, 4]])
    mask, _, _ = _match_mask(x, _shapelet([2, 3], channel=1))
    assert np.all(mask[0] == 1.0)
    assert np.array_equal(mask[1], [1, 0, 0, 1])


def _pool_for(shapelets):
    labels = order_labels([s.label for s in shapelets])
    return ShapeletPool(shapelets=tuple(shapelets), per_class_quota=1,
                        labels=labels, config=Config())


def _with_majority(x, n=2):
    """``x`` after ``n`` majority-class (NP) instances of its shape, so
    ``balance_dataset`` augments ``x`` alone."""
    rows = [dataclasses.replace(x, id=f"n{i}", label="NP") for i in range(n)]
    return Dataset(tuple(rows) + (x,))


def _copies(out, x):
    return [y for y in out if y.id.startswith(f"{x.id}#aug")]


def test_augment_zero_sigma_is_identity():
    x = make_series([1, 4, 2, 8], label="AC", id="a0")
    pool = _pool_for([_shapelet([4, 2], label="AC")])
    out = balance_dataset(_with_majority(x), pool, Config(r_sa=4, noise_sigma_scale=0.0))
    copies = _copies(out, x)
    assert [y.id for y in copies] == [f"a0#aug{j}" for j in range(4)]
    for y in copies:
        assert y.label == "AC"
        assert np.array_equal(y.values, x.values)


def test_augment_preserves_exact_match_span():
    x = make_series([1, 4, 2, 8, 3], label="AC", id="a0", pad_to=8)
    pool = _pool_for([_shapelet([4, 2, 8], label="AC", start=1)])
    out = balance_dataset(_with_majority(x), pool,
                          Config(r_sa=1, noise_sigma_scale=0.5, seed=1))
    (y,) = _copies(out, x)
    assert np.array_equal(y.values[0, 1:4], x.values[0, 1:4])  # bit-unchanged
    assert np.all(y.values[0, [0, 4]] != x.values[0, [0, 4]])
    assert np.all(y.values[:, 5:] == 0.0)
    assert y.original_length == x.original_length


def test_augment_fixed_seed_reproduces():
    x = make_series([1, 4, 2, 8, 3], label="DT", id="d0")
    pool = _pool_for([_shapelet([9, 1], label="DT"), _shapelet([4, 2], label="DT")])
    a = balance_dataset(_with_majority(x), pool, Config(r_sa=3, seed=5))
    b = balance_dataset(_with_majority(x), pool, Config(r_sa=3, seed=5))
    assert [y.id for y in a] == [y.id for y in b]
    for ya, yb in zip(a, b):
        assert np.array_equal(ya.values, yb.values)


def test_augment_skips_an_instance_no_shapelet_fits(caplog):
    """A padded minority instance shorter than every pool shapelet of its
    class gets no copies, a warning naming it and a count; the other
    minority instance is still augmented."""
    short = make_series([1, 2, 3], label="IE", id="i0", pad_to=6)
    fits = make_series([1, 2, 3, 4, 5, 6], label="IE", id="i1")
    too_long = _shapelet([1, 2, 3, 4], label="IE")
    wrong_class = _shapelet([1, 2], label="NP")
    pool = _pool_for([too_long, wrong_class])
    rows = [dataclasses.replace(fits, id=f"n{i}", label="NP") for i in range(3)]
    counters = {}
    with caplog.at_level("WARNING", logger="pvashape.augment"):
        out = balance_dataset(Dataset(tuple(rows) + (short, fits)), pool, Config(r_sa=2),
                              counters=counters)
    assert _copies(out, short) == [] and len(_copies(out, fits)) == 2
    assert counters == {"copies": 2, "unaugmentable": 1}
    assert "i0" in caplog.text


def test_fit_counts_an_instance_no_shapelet_fits():
    """`workflow.fit` on a split with a padded minority instance shorter
    than every pool shapelet of its class: the fit completes, and the
    manifest counters hold the copies made and the instance left out."""
    ds = generate_synthetic(SynthConfig(
        n_instances=24, t=40, seed=1,
        class_proportions={"NP": 0.5, "AC": 0.25, "DT": 0.25}))
    train_ds, val_ds = Dataset(ds.instances[:16]), Dataset(ds.instances[16:])
    cfg = Config(k=5, g=6, r_sa=2, max_epochs=2, seed=0)
    pool = discovery.discover(train_ds, cfg)
    x = next(y for y in train_ds if y.label == "AC")
    n = min(len(s) for s in pool.of_class("AC")) - 1
    values = x.values.copy()
    values[:, n:] = 0.0
    short = dataclasses.replace(x, id="short", values=values, original_length=n)
    run = Run("fit", cfg)
    result = fit(Dataset(train_ds.instances + (short,)), val_ds, cfg, pool=pool, run=run)
    minority = sum(y.label != "NP" for y in train_ds)
    assert run.counters["augment"] == {"copies": 2 * minority, "unaugmentable": 1}
    assert not any(y.id.startswith("short#aug") for y in result.train_full)
    assert run.counters["train"]["epochs"] == len(result.checkpoint.history) > 0


def test_fit_refuses_a_run_of_another_config():
    # the stages read the run's config, so a run of another config would
    # fit with settings the caller did not give
    ds = generate_synthetic(SynthConfig(n_instances=12, t=40, seed=1))
    train_ds, val_ds = Dataset(ds.instances[:8]), Dataset(ds.instances[8:])
    with pytest.raises(ValueError, match="another config"):
        fit(train_ds, val_ds, Config(k=5), run=Run("fit", Config(k=6)))


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        Config(noise_sigma_scale=-0.1)


def _imbalanced(n_np=6, n_ac=2):
    gen = np.random.default_rng(0)
    rows = [make_series(gen.normal(size=10) + 3, label="NP", id=f"n{i}")
            for i in range(n_np)]
    rows += [make_series(gen.normal(size=10) - 3, label="AC", id=f"a{i}")
             for i in range(n_ac)]
    return Dataset(tuple(rows))


def _tiny_pool():
    return _pool_for([_shapelet([3.0, 3.5, 2.5], label="NP", source="n0"),
                            _shapelet([-3.0, -2.5, -3.5], label="AC", source="a0")])


def test_balance_counts_and_majority_untouched():
    ds = _imbalanced()
    out = balance_dataset(ds, _tiny_pool(), Config(r_sa=3, seed=1))
    assert out.class_counts == {"NP": 6, "AC": 2 + 2 * 3}
    originals = {x.id: x for x in ds}
    kept = [x for x in out if "#aug" not in x.id]
    assert len(kept) == len(ds)
    for x in kept:
        assert np.array_equal(x.values, originals[x.id].values)
    for x in out:
        if "#aug" in x.id:
            assert x.label == "AC"
            assert x.id.split("#aug")[0] in originals


def test_majority_is_first_in_label_order_on_ties():
    # AC rows come first, but NP precedes AC in label order, so NP is the
    # majority for augmentation and for discovery's minority-first scan
    ds = _imbalanced(n_np=2, n_ac=2)
    ds = Dataset(ds.instances[2:] + ds.instances[:2])
    assert ds.majority == "NP"
    out = balance_dataset(ds, _tiny_pool(), Config(r_sa=1, seed=1))
    assert out.class_counts == {"NP": 2, "AC": 4}
    assert [ds[i].label for i in discovery._minority_first(ds)] == ["AC", "AC", "NP", "NP"]
    assert _imbalanced(n_np=2, n_ac=3).majority == "AC"
    assert Dataset(()).majority is None


def test_balance_zero_ratio_is_identity():
    ds = _imbalanced()
    assert balance_dataset(ds, _tiny_pool(), Config(r_sa=0)) is ds


def test_balance_seeded_runs_identical():
    ds = _imbalanced()
    a = balance_dataset(ds, _tiny_pool(), Config(r_sa=3, seed=9))
    b = balance_dataset(ds, _tiny_pool(), Config(r_sa=3, seed=9))
    assert [x.id for x in a] == [x.id for x in b]
    for xa, xb in zip(a, b):
        assert np.array_equal(xa.values, xb.values)


def _padded_mix(seed):
    """Three-channel instances of varying unpadded length in a 30-sample
    frame: six NP, three AC, two DT."""
    gen = np.random.default_rng(seed)
    rows = []
    for i, lab in enumerate(["NP"] * 6 + ["AC"] * 3 + ["DT"] * 2):
        n = int(gen.integers(12, 31))
        rows.append(make_series(gen.normal(size=(3, n)), label=lab, id=f"{lab}{i}",
                                pad_to=30))
    return Dataset(tuple(rows))


def test_balance_reruns_give_the_same_copies():
    # several (channel, length) groups per class, so the engine collects
    # its groups' matches in order
    ds = _padded_mix(5)
    pool = _pool_for([
        _shapelet(x.values[ch, 1 : 1 + n], channel=ch, label=x.label, source=x.id, start=1)
        for x in (ds[6], ds[7], ds[9], ds[10]) for ch, n in ((0, 4), (1, 6), (2, 9))])
    one = balance_dataset(ds, pool, Config(r_sa=3, seed=2))
    two = balance_dataset(ds, pool, Config(r_sa=3, seed=2))
    assert [x.id for x in one] == [x.id for x in two]
    for a, b in zip(one, two):
        assert a.values.tobytes() == b.values.tobytes()


def test_balance_keeps_exact_spans_and_zero_padding():
    # one shapelet per minority class, cut from a source instance: every
    # copy of that source is guided by an exact match, whose span must
    # survive bit for bit; every copy keeps a zero tail on every channel
    ds = _padded_mix(11)
    sources = {"AC": (ds[6], 1, 2, 9), "DT": (ds[9], 2, 0, 6)}
    pool = _pool_for([
        _shapelet(x.values[ch, a:b], channel=ch, label=lab, source=x.id, start=a)
        for lab, (x, ch, a, b) in sources.items()])
    out = balance_dataset(ds, pool, Config(r_sa=4, seed=3))
    assert out.class_counts == {"NP": 6, "AC": 3 * 5, "DT": 2 * 5}
    for x, ch, a, b in sources.values():
        dists, offsets = match_pool([x], pool.of_class(x.label))
        assert dists[0, 0] == 0.0 and offsets[0, 0] == a
        copies = _copies(out, x)
        assert len(copies) == 4
        for y in copies:
            assert np.array_equal(y.values[ch, a:b], x.values[ch, a:b])
    by_id = {x.id: x for x in ds}
    augmented = [y for y in out if "#aug" in y.id]
    for y in augmented:
        x = by_id[y.id.split("#aug")[0]]
        assert y.values.shape == x.values.shape
        assert np.all(y.values[:, x.original_length:] == 0.0)
        assert np.any(y.values[:, : x.original_length] != x.values[:, : x.original_length])
