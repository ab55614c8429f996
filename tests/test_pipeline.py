"""Splitting, channel subsets, synthetic generation."""
import numpy as np
import pytest

from pvashape.core import Dataset, SeededRng, ValidationError
from pvashape.pipeline import (SynthConfig, class_quotas, default_proportions,
                               generate_synthetic, split, subset_channels)


def _synth(n=100, seed=0, **kw):
    props = kw.pop("proportions", {"NP": 0.4, "AC": 0.2, "DT": 0.2, "IE": 0.2})
    return generate_synthetic(SynthConfig(n_instances=n, class_proportions=props,
                                          seed=seed, **kw))


def test_split_eighty_twenty():
    ds = _synth(100)
    tr, va = split(ds, 0.8, SeededRng(1))
    assert len(tr) == 80 and len(va) == 20
    assert tr.class_counts == {"NP": 32, "AC": 16, "DT": 16, "IE": 16}
    assert va.class_counts == {"NP": 8, "AC": 4, "DT": 4, "IE": 4}
    assert {x.id for x in tr} | {x.id for x in va} == {x.id for x in ds}
    assert not ({x.id for x in tr} & {x.id for x in va})


def test_split_same_seed_identical():
    ds = _synth(60)
    a_tr, a_va = split(ds, 0.8, SeededRng(5))
    b_tr, b_va = split(ds, 0.8, SeededRng(5))
    assert [x.id for x in a_tr] == [x.id for x in b_tr]
    assert [x.id for x in a_va] == [x.id for x in b_va]


def test_split_two_per_class_half():
    rows = []
    for x in _synth(8, proportions={"NP": 0.5, "AC": 0.5}):
        rows.append(x)
    ds = Dataset(tuple(rows))
    tr, va = split(ds, 0.5, SeededRng(0))
    assert tr.class_counts == {"NP": 2, "AC": 2}
    assert va.class_counts == {"NP": 2, "AC": 2}


def test_split_rejects_singleton_class():
    ds = _synth(5, proportions={"NP": 0.8, "AC": 0.2})
    assert ds.class_counts["AC"] == 1
    with pytest.raises(ValidationError):
        split(ds, 0.8, SeededRng(0))


def test_split_rejects_bad_fraction():
    with pytest.raises(ValidationError):
        split(_synth(20), 1.0, SeededRng(0))


def test_quotas_largest_remainder():
    props = default_proportions()
    q = class_quotas(1000, props)
    assert sum(q.values()) == 1000
    for lab, p in props.items():
        assert abs(q[lab] - 1000 * p) <= 1.0
    assert class_quotas(2000, props) == {"NP": 1836, "AC": 42, "DT": 69, "IE": 53}


def test_synth_deterministic():
    a = _synth(30, seed=9)
    b = _synth(30, seed=9)
    assert [x.id for x in a] == [x.id for x in b]
    for xa, xb in zip(a, b):
        assert np.array_equal(xa.values, xb.values)
        assert xa.label == xb.label


def test_synth_single_class():
    ds = generate_synthetic(SynthConfig(n_instances=12,
                                        class_proportions={"NP": 1.0}, seed=0))
    assert ds.class_counts == {"NP": 12}


def test_synth_shape_and_ids():
    ds = _synth(20, t=60)
    assert len(ds) == 20
    assert ds[0].id == "syn-00000"
    for x in ds:
        assert x.values.shape == (4, 60)
        assert x.original_length == 60
        assert x.channel_names == ("Pmask", "Flow", "Thor", "Abdo")


def test_synth_validation():
    with pytest.raises(ValidationError):
        SynthConfig(n_instances=0)
    with pytest.raises(ValidationError):
        SynthConfig(n_instances=5, t=20)
    with pytest.raises(ValidationError):
        SynthConfig(n_instances=5, class_proportions={"NP": 0.5, "AC": 0.4})
    with pytest.raises(ValidationError):
        SynthConfig(n_instances=5, class_proportions={"XX": 1.0})
    for share in (-0.5, float("nan")):
        with pytest.raises(ValidationError, match="--proportions share for AC"):
            SynthConfig(n_instances=5, class_proportions={"AC": share, "NP": 1.0 - share})


def test_subset_channels():
    ds = _synth(8)
    two = subset_channels(ds, (0, 1))
    assert two.n_channels == 2
    assert two[0].channel_names == ("Pmask", "Flow")
    assert np.array_equal(two[3].values, ds[3].values[:2])
    full = subset_channels(ds, (0, 1, 2, 3))
    assert np.array_equal(full[0].values, ds[0].values)
    with pytest.raises((ValidationError, IndexError)):
        subset_channels(ds, (0, 7))
