"""Classification head: forward, gradients, training loop, metrics, tuning."""
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pvashape.core import Config, SeededRng, Shapelet, ShapeletPool, ValidationError
from pvashape.discovery import pool_digest
from pvashape.features import FeatureScaler
from pvashape.model import (PARAM_NAMES, HeadParams, ModelCheckpoint, TrainingDivergedError,
                            batch_loss, compute_metrics,
                            forward_batch, gradients, init_params,
                            load_checkpoint, save_checkpoint, train)
from pvashape.pipeline import SynthConfig, generate_synthetic
from pvashape import workflow
from pvashape.workflow import k_grid, stratified_folds, tune_k


def _zero_params(d=3, c=4):
    return HeadParams(w1=np.zeros((d, 512)), b1=np.zeros(512),
                      w2=np.zeros((512, 256)), b2=np.zeros(256),
                      w3=np.zeros((256, c)), b3=np.zeros(c))


def test_forward_zero_params_uniform():
    probs = forward_batch(_zero_params(), np.array([[1.0, -2.0, 0.5]]))[0]
    assert np.allclose(probs, 0.25, atol=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_hand_set_logits():
    p = _zero_params(d=1, c=3)
    p.b3[:] = [1.0, 0.0, -1.0]
    probs = forward_batch(p, np.array([[0.7]]))[0]
    z = np.exp([1.0, 0.0, -1.0])
    assert np.allclose(probs, z / z.sum(), atol=1e-12)


def test_forward_sums_to_one():
    rng = SeededRng(0)
    p = init_params(5, 4, rng)
    probs = forward_batch(p, np.random.default_rng(1).normal(size=(7, 5)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_rejects_non_finite_input():
    p = _zero_params()
    with pytest.raises(ValidationError):
        forward_batch(p, np.array([[1.0, np.nan, 0.0]]))


def test_params_reject_non_finite():
    with pytest.raises(ValidationError):
        HeadParams(w1=np.full((3, 512), np.inf), b1=np.zeros(512),
                   w2=np.zeros((512, 256)), b2=np.zeros(256),
                   w3=np.zeros((256, 2)), b3=np.zeros(2))


def _loss(probs, label_index):
    """Cross-entropy of one prediction, as a one-row batch."""
    return batch_loss(np.array([probs]), np.array([label_index]))


def test_loss_uniform_and_confident():
    assert _loss([0.25] * 4, 0) == pytest.approx(math.log(4), abs=1e-12)
    assert _loss([1.0, 0.0, 0.0, 0.0], 0) == 0.0
    assert _loss([0.7, 0.1, 0.1, 0.1], 0) == pytest.approx(-math.log(0.7), abs=1e-12)


def test_loss_floors_zero_probability():
    out = _loss([1.0, 0.0], 1)
    assert out == pytest.approx(-math.log(1e-12), abs=1e-9)
    assert math.isfinite(out)


def test_batch_loss_is_mean():
    probs = np.array([[0.5, 0.5], [0.9, 0.1]])
    want = (-math.log(0.5) - math.log(0.9)) / 2
    assert batch_loss(probs, np.array([0, 0])) == pytest.approx(want, abs=1e-12)


def _fd_check(gen, n_coords=10, h=1e-6):
    d = int(gen.integers(3, 15))
    c = int(gen.integers(2, 5))
    params = init_params(d, c, SeededRng(int(gen.integers(1 << 30))))
    pd = {n: getattr(params, n).copy() for n in PARAM_NAMES}
    b = int(gen.integers(1, 4))
    z = gen.normal(size=(b, d))
    y = gen.integers(0, c, size=b)
    ga = gradients(pd, z, y)
    worst = 0.0
    for _ in range(n_coords):
        name = ["w1", "b1", "w2", "b2", "w3", "b3"][int(gen.integers(6))]
        flat = pd[name].reshape(-1)
        i = int(gen.integers(flat.size))
        keep = flat[i]
        flat[i] = keep + h
        up = batch_loss(forward_batch(pd, z), y)
        flat[i] = keep - h
        dn = batch_loss(forward_batch(pd, z), y)
        flat[i] = keep
        gfd = (up - dn) / (2 * h)
        g = ga[name].reshape(-1)[i]
        rel = abs(g - gfd) / max(abs(g), abs(gfd), 1e-8)
        worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences():
    gen = np.random.default_rng(12)
    for _ in range(5):
        assert _fd_check(gen) <= 1e-4


def _toy_split(n=40, d=6, seed=0):
    gen = np.random.default_rng(seed)
    half = n // 2
    z = np.vstack([gen.normal(size=(half, d)) + 3.0,
                   gen.normal(size=(half, d)) - 3.0])
    labels = ["AC"] * half + ["NP"] * half
    idx = gen.permutation(n)
    z, labels = z[idx], [labels[i] for i in idx]
    return z[: n - 10], labels[: n - 10], z[n - 10 :], labels[n - 10 :]


def test_train_separable_toy_converges():
    z_tr, y_tr, z_va, y_va = _toy_split()
    cfg = Config(max_epochs=100, patience=10)
    ckpt = train(z_tr, y_tr, z_va, y_va, cfg, SeededRng(0))
    y_true = [ckpt.classes.index(lab) for lab in y_tr]
    rep = compute_metrics(y_true, np.argmax(forward_batch(ckpt.params, z_tr), axis=1),
                          ckpt.classes)
    assert rep.accuracy == 1.0
    assert ckpt.best_val_macro_f1 == 1.0


def test_train_fixed_seed_identical():
    z_tr, y_tr, z_va, y_va = _toy_split()
    cfg = Config(max_epochs=12)
    a = train(z_tr, y_tr, z_va, y_va, cfg, SeededRng(3))
    b = train(z_tr, y_tr, z_va, y_va, cfg, SeededRng(3))
    assert a.to_dict() == b.to_dict()


def test_train_zero_epochs_returns_initialization():
    z_tr, y_tr, z_va, y_va = _toy_split()
    cfg = Config(max_epochs=0)
    ckpt = train(z_tr, y_tr, z_va, y_va, cfg, SeededRng(5))
    init = init_params(z_tr.shape[1], 2, SeededRng(5).derive(0))
    assert ckpt.params.to_dict() == init.to_dict()


def test_train_divergence_raises():
    z_tr, y_tr, z_va, y_va = _toy_split()
    cfg = Config(max_epochs=5, learning_rate=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(z_tr, y_tr, z_va, y_va, cfg, SeededRng(0))


def _one_shapelet_pool():
    s = Shapelet(values=np.array([0.5, -1.25, 3.0]), channel=1, source_id="x7", start=2,
                 end=4, label="AC", info_gain=0.4, split_threshold=1.5, max_train_psd=9.0)
    return ShapeletPool(shapelets=(s,), per_class_quota=1, labels=("AC", "NP"),
                        config=Config(k=5))


def test_checkpoint_round_trip(tmp_path):
    z_tr, y_tr, z_va, y_va = _toy_split()
    scaler = FeatureScaler(mean=np.zeros(6), std=np.ones(6))
    pool = _one_shapelet_pool()
    ckpt = train(z_tr, y_tr, z_va, y_va, Config(max_epochs=3), SeededRng(1),
                 scaler=scaler, pool=pool)
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, ckpt)
    again = load_checkpoint(p)
    assert again.to_dict() == ckpt.to_dict()
    assert isinstance(again, ModelCheckpoint)
    assert again.classes == ckpt.classes
    assert pool_digest(again.pool) == pool_digest(pool)


def _extreme_params(d=5, c=4, seed=0):
    """Random head parameters whose first entries are float64 edge values:
    signed zeros, the smallest subnormals, the largest finite magnitudes
    and the smallest normal."""
    gen = np.random.default_rng(seed)
    shapes = {"w1": (d, 512), "b1": (512,), "w2": (512, 256), "b2": (256,),
              "w3": (256, c), "b3": (c,)}
    arrays = {n: gen.normal(size=shape) for n, shape in shapes.items()}
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308]
    for a in arrays.values():
        a.reshape(-1)[: len(special)] = special[: a.size]
    return HeadParams(**arrays)


def test_checkpoint_weights_round_trip_bit_exact(tmp_path):
    params = _extreme_params()
    ckpt = ModelCheckpoint(params=params, classes=("NP", "AC", "DT", "IE"), scaler=None,
                           config=Config(use_shapelet_features=False), pool=None,
                           history=(), best_epoch=0, best_val_macro_f1=0.0)
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, ckpt)
    again = load_checkpoint(p).params
    for name in PARAM_NAMES:
        a, b = getattr(params, name), getattr(again, name)
        assert b.dtype == np.float64 and b.shape == a.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
        assert b.flags.owndata and b.flags.writeable
    assert np.signbit(again.w1.reshape(-1)[0])


def test_checkpoint_saves_identical_bytes_twice(tmp_path):
    z_tr, y_tr, z_va, y_va = _toy_split()
    ckpt = train(z_tr, y_tr, z_va, y_va, Config(max_epochs=3), SeededRng(1),
                 pool=_one_shapelet_pool())
    save_checkpoint(tmp_path / "a.json", ckpt)
    save_checkpoint(tmp_path / "b.json", load_checkpoint(tmp_path / "a.json"))
    save_checkpoint(tmp_path / "c.json", ckpt)
    first = (tmp_path / "a.json").read_bytes()
    assert (tmp_path / "b.json").read_bytes() == first
    assert (tmp_path / "c.json").read_bytes() == first


@pytest.mark.parametrize("mutate", [
    lambda w: w.update(b1=w["b1"]["float64_le"]),
    lambda w: w["w3"].pop("shape"),
    lambda w: w.pop("b2"),
    lambda w: w["w2"].update(shape=[512, 255]),
    lambda w: w["b3"].update(float64_le="not base64!"),
    lambda w: w["w1"].update(shape=[5.0, 512]),
], ids=["bare-payload", "no-shape", "missing-param", "wrong-count", "bad-base64",
        "float-shape"])
def test_checkpoint_refuses_malformed_weights(mutate):
    weights = _extreme_params().to_dict()
    mutate(weights)
    with pytest.raises(ValidationError, match="rewrite the checkpoint"):
        HeadParams.from_dict(weights)


@pytest.mark.parametrize("name,shape", [("b3", (1,)), ("b1", (1,)), ("w1", (512,)),
                                        ("w3", (256,)), ("b2", (256, 1))])
def test_head_refuses_a_parameter_of_the_wrong_shape(name, shape):
    # a (1,) bias would broadcast over its layer without an error
    arrays = {n: getattr(_zero_params(), n) for n in PARAM_NAMES}
    arrays[name] = np.zeros(shape)
    with pytest.raises(ValidationError, match=f"{name} has shape"):
        HeadParams(**arrays)


@pytest.mark.parametrize("doc", [[], {"weights": {}, "config": {}}, {"classes": ["NP"]}],
                         ids=["array", "no-classes", "no-weights-or-config"])
def test_checkpoint_refuses_a_document_missing_its_keys(tmp_path, doc):
    p = tmp_path / "ckpt.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="checkpoint lacks"):
        load_checkpoint(p)


def test_metrics_hand_example():
    # truth NP,AC,AC,DT vs preds NP,NP,AC,DT as class indices
    truth = np.array([0, 1, 1, 2])
    preds = np.array([0, 0, 1, 2])
    rep = compute_metrics(truth, preds, ("NP", "AC", "DT"))
    assert rep.accuracy == 0.75
    assert rep.per_class_f1["NP"] == pytest.approx(2 / 3, abs=1e-12)
    assert rep.per_class_f1["AC"] == pytest.approx(2 / 3, abs=1e-12)
    assert rep.per_class_f1["DT"] == 1.0
    assert rep.recall == rep.accuracy


def test_metrics_perfect():
    y = np.array([0, 1, 2, 3])
    rep = compute_metrics(y, y.copy(), ("NP", "AC", "DT", "IE"))
    assert rep.accuracy == 1.0 and rep.macro_f1 == 1.0 and rep.f1 == 1.0


def test_weighted_recall_equals_accuracy_exactly():
    gen = np.random.default_rng(7)
    classes = ("NP", "AC", "DT", "IE")
    for _ in range(200):
        n = int(gen.integers(1, 60))
        truth = gen.integers(0, 4, size=n)
        preds = gen.integers(0, 4, size=n)
        rep = compute_metrics(truth, preds, classes)
        assert rep.recall == rep.accuracy  # bit-exact, not approx


def test_eval_report_round_trip():
    rep = compute_metrics(np.array([0, 1, 1, 2]), np.array([0, 0, 1, 2]),
                          ("NP", "AC", "DT"))
    d = rep.to_dict()
    # metrics.json holds this dict: plain JSON types that read back equal
    assert json.loads(json.dumps(d)) == d


def test_k_grid_values():
    assert k_grid(150) == [3, 4, 6, 7, 8, 10, 11, 12, 14, 15]
    assert k_grid(30) == [3]
    assert k_grid(300) == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]


def test_k_grid_rejects_short_series():
    with pytest.raises(ValidationError):
        k_grid(29)


def test_stratified_folds_partition():
    labels = ["NP"] * 7 + ["AC"] * 5 + ["DT"] * 3
    folds = stratified_folds(labels, 3, SeededRng(2))
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(15))
    for f in folds:
        assert len(set(f.tolist())) == len(f)
        counts = {lab: sum(1 for i in f if labels[i] == lab)
                  for lab in ("NP", "AC", "DT")}
        assert counts["DT"] == 1


def test_stratified_folds_class_too_small():
    with pytest.raises(ValidationError):
        stratified_folds(["NP", "NP", "AC"], 2, SeededRng(0))


def _tiny_t30_dataset():
    props = {"NP": 0.4, "AC": 0.2, "DT": 0.2, "IE": 0.2}
    return generate_synthetic(SynthConfig(n_instances=20, class_proportions=props,
                                          noise=0.05, seed=4, t=30))


def test_tune_k_degenerate_grid_returns_member():
    ds = _tiny_t30_dataset()
    cfg = Config(g=8, max_epochs=5, folds=2, seed=4)
    a = tune_k(ds, cfg)
    b = tune_k(ds, cfg)
    assert a.best_k == 3  # only grid member at T = 30
    assert a.best_k == b.best_k
    assert a.scores == b.scores
    assert set(a.reports) == {3}


BALANCED = {"NP": 0.25, "AC": 0.25, "DT": 0.25, "IE": 0.25}


def test_tune_k_leave_one_out_pools_every_instance_once(monkeypatch):
    ds = generate_synthetic(SynthConfig(n_instances=8, class_proportions=BALANCED,
                                        noise=0.05, seed=4, t=30))
    validated = []

    def recording_fit(train_ds, val_ds, config, **kw):
        validated.extend(x.id for x in val_ds)
        return fit(train_ds, val_ds, config, **kw)

    fit = workflow.fit
    monkeypatch.setattr(workflow, "fit", recording_fit)
    result = tune_k(ds, Config(g=8, max_epochs=3, folds=len(ds), seed=4))
    assert sorted(validated) == sorted(x.id for x in ds)
    report = result.reports[3]
    assert report.confusion.sum() == len(ds)
    assert dict(zip(report.classes, report.confusion.sum(axis=1).tolist())) == ds.class_counts
    assert result.scores[3] == report.macro_f1


def test_tune_k_best_k_is_the_smallest_of_tied_scores(monkeypatch):
    ds = generate_synthetic(SynthConfig(n_instances=8, class_proportions=BALANCED,
                                        seed=0, t=150))
    macro_f1 = {3: 0.5, 6: 0.8, 10: 0.8}

    def scored_fit(train_ds, val_ds, config, *, classes, run):
        report = compute_metrics(np.zeros(0, dtype=int), np.zeros(0, dtype=int), classes)
        return SimpleNamespace(report=replace(report, macro_f1=macro_f1.get(config.k, 0.1)))

    monkeypatch.setattr(workflow, "fit", scored_fit)
    result = tune_k(ds, Config(folds=2, seed=0))
    assert list(result.scores) == k_grid(150)
    assert result.scores[6] == result.scores[10] == max(result.scores.values())
    assert result.best_k == 6
