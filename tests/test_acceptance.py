"""Acceptance gate: one test per release criterion, run against the real
implementation at the stated tolerances. Each test prints a single
criterion line with its measured numbers."""
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np

import oracles
import pvashape
from pvashape.augment import balance_dataset
from pvashape.cli import main
from pvashape.core import Config, Dataset, STREAM_SPLIT, SeededRng
from pvashape.discovery import _gain_block, discover
from pvashape.distance import match_pool, psd
from pvashape.model import (PARAM_NAMES, batch_loss, compute_metrics, forward_batch,
                            gradients, init_params)
from pvashape.pips import pip_insertions
from pvashape.pipeline import SynthConfig, generate_synthetic, split
from pvashape import workflow
from pvashape.workflow import k_grid, tune_k

MINORITY = ("AC", "DT", "IE")


def _report(n, detail):
    print(f"\ncriterion {n}: PASS ({detail})")


# -- 1: subsequence distance against an independent reference --------------

def test_criterion_01_distance_matches_oracle(series_factory):
    gen = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        l = int(gen.integers(2, 9))
        t = int(gen.integers(max(l, 3), 33))
        if i % 3 == 0:  # integer-valued, tie-prone
            vals = gen.integers(0, 3, size=t).astype(float)
            q = gen.integers(0, 3, size=l).astype(float)
        else:
            vals = gen.normal(size=t)
            q = gen.normal(size=l)
        pad = int(gen.integers(0, 7))
        x = series_factory(vals, pad_to=t + pad)
        got = psd(x, 0, q)
        want_d, want_j = oracles.psd(x.values[0], t, q)
        err = abs(got.psd - want_d)
        worst = max(worst, err)
        assert err <= 1e-9
        # the returned offset must realize the minimum; integer inputs are
        # exact in both paths, so there ties must break identically too
        w = x.values[0][got.offset : got.offset + l]
        assert oracles.cid([float(v) for v in q], [float(v) for v in w]) <= want_d + 1e-9
        if i % 3 == 0:
            assert got.offset == want_j
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"200 pairs, max |err| {worst:.2e}, {elapsed:.2f}s")


# -- 2: important-point selection against an independent reference ---------

def test_criterion_02_pip_selection_matches_oracle():
    gen = np.random.default_rng(202)
    t0 = time.perf_counter()
    checked = 0
    for i in range(100):
        k = int(gen.integers(3, 11))
        n = int(gen.integers(k, 65))
        if i % 2 == 0:  # small integer alphabet forces distance ties
            series = gen.integers(0, 4, size=n).astype(float)
        else:
            series = gen.normal(size=n)
        steps = oracles.pip_steps(series, k)
        inserted = pip_insertions(series[None], [n], k)[0][0].tolist()
        assert len(inserted) == len(steps) == k - 2
        pips = [0, n - 1]
        for got, (added, pips_after) in zip(inserted, steps):
            pips = sorted(pips + [got])
            assert got == added
            assert tuple(pips) == pips_after
            checked += 1
        assert tuple(pips) == steps[-1][1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"100 series, {checked} insertions exact, {elapsed:.2f}s")


# -- 3: split information gain against exhaustive search -------------------

def test_criterion_03_information_gain_matches_oracle():
    gen = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(gen.integers(2, 21))
        if i % 2 == 0:  # gridded distances produce duplicates
            d = gen.integers(0, 5, size=n) / 4.0
        else:
            d = gen.uniform(0.0, 2.0, size=n)
        flags = gen.integers(0, 2, size=n).astype(bool)
        pairs = list(zip(d.tolist(), flags.tolist()))
        gains, thresholds = _gain_block(d[None], flags[None])
        got_gain, got_thr = float(gains[0]), float(thresholds[0])
        want_gain, want_thr = oracles.info_gain(pairs)
        worst = max(worst, abs(got_gain - want_gain))
        assert abs(got_gain - want_gain) <= 1e-12
        assert got_thr == want_thr
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"100 sets, max gain err {worst:.2e}, thresholds exact, {elapsed:.2f}s")


# -- 4: guided augmentation balances counts without touching evidence ------

def _padded(ds: Dataset, extra: int) -> Dataset:
    out = []
    for x in ds:
        values = np.pad(x.values, ((0, 0), (0, extra)))
        out.append(dataclasses.replace(x, values=values))
    return Dataset(tuple(out))


def test_criterion_04_augmentation_balances_and_preserves():
    synth = SynthConfig(n_instances=115,
                        class_proportions={"NP": 100 / 115, "AC": 5 / 115,
                                           "DT": 5 / 115, "IE": 5 / 115},
                        noise=0.1, seed=41, t=60)
    ds = _padded(generate_synthetic(synth), 17)
    assert ds.class_counts == {"NP": 100, "AC": 5, "DT": 5, "IE": 5}
    cfg = Config(k=5, g=4, r_sa=10, seed=9)
    pool = discover(ds, cfg)

    out = balance_dataset(ds, pool, cfg)
    assert out.class_counts == {"NP": 100, "AC": 55, "DT": 55, "IE": 55}

    by_id = {x.id: x for x in ds}
    for x in out:
        if "#aug" in x.id:
            parent = by_id[x.id.split("#aug")[0]]
            assert np.all(x.values[:, x.original_length:] == 0.0)
            assert x.values.shape == parent.values.shape
            assert np.any(x.values != parent.values)
        else:  # originals pass through untouched
            assert x.values is by_id[x.id].values

    # each class has exactly one shapelet here, so every copy of its source
    # instance is guided by an exact match: that span must survive bit-for-bit
    spans = 0
    for lab in MINORITY:
        (s,) = pool.of_class(lab)
        src = by_id[s.source_id]
        dists, offsets = match_pool([src], [s])
        assert dists[0, 0] == 0.0
        lo, hi = int(offsets[0, 0]), int(offsets[0, 0]) + len(s)
        for x in out:
            if x.id.startswith(f"{src.id}#aug"):
                assert np.array_equal(x.values[s.channel, lo:hi],
                                      src.values[s.channel, lo:hi])
                spans += 1
    assert spans == 3 * 10

    again = balance_dataset(ds, pool, cfg)
    assert [x.id for x in again] == [x.id for x in out]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(again, out))
    _report(4, "counts {100,55,55,55}, 30 exact-match spans intact, rerun identical")


# -- 5: analytic gradients against central finite differences --------------

def test_criterion_05_gradients_match_finite_differences():
    gen = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-6
    for _ in range(50):
        d = int(gen.integers(2, 15))
        c = int(gen.integers(2, 5))
        b = int(gen.integers(1, 9))
        init = init_params(d, c, SeededRng(int(gen.integers(1 << 30))))
        params = {n: getattr(init, n).copy() for n in PARAM_NAMES}
        z = gen.normal(size=(b, d))
        y = gen.integers(0, c, size=b)
        ga = gradients(params, z, y)
        for _ in range(10):
            name = ["w1", "b1", "w2", "b2", "w3", "b3"][int(gen.integers(6))]
            flat = params[name].reshape(-1)
            i = int(gen.integers(flat.size))
            keep = flat[i]
            flat[i] = keep + h
            up = batch_loss(forward_batch(params, z), y)
            flat[i] = keep - h
            dn = batch_loss(forward_batch(params, z), y)
            flat[i] = keep
            gfd = (up - dn) / (2 * h)
            g = ga[name].reshape(-1)[i]
            rel = abs(g - gfd) / max(abs(g), abs(gfd), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"50 draws x 10 coords, worst rel err {worst:.2e}, {elapsed:.2f}s")


# -- 6: support-weighted recall equals accuracy exactly ---------------------

def test_criterion_06_weighted_recall_equals_accuracy():
    gen = np.random.default_rng(606)
    for _ in range(1000):
        c = int(gen.integers(2, 7))
        n = int(gen.integers(1, 201))
        classes = tuple(f"K{j}" for j in range(c))
        y_true = gen.integers(0, c, size=n)
        y_pred = gen.integers(0, c, size=n)
        rep = compute_metrics(y_true, y_pred, classes)
        assert rep.recall == rep.accuracy
    _report(6, "1000 random prediction sets, equality bit-exact")


# -- 7: default end-to-end run meets quality and time budgets ---------------

def test_criterion_07_end_to_end_defaults(tmp_path):
    out = tmp_path / "full"
    t0 = time.perf_counter()
    rc = main(["run-all", "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rep = json.loads((out / "metrics.json").read_text())
    assert elapsed <= 600.0
    assert rep["accuracy"] >= 0.95
    assert min(rep["per_class_f1"].values()) >= 0.80
    f1s = " ".join(f"{k}={v:.3f}" for k, v in rep["per_class_f1"].items())
    _report(7, f"accuracy {rep['accuracy']:.4f}, F1 {f1s}, {elapsed:.1f}s")


# -- 8: augmentation never costs minority F1 across seeds -------------------

def _minority_mean(report) -> float:
    return float(np.mean([report.per_class_f1[c] for c in MINORITY]))


def test_criterion_08_augmentation_helps_minorities():
    wins, pairs = 0, []
    for seed in range(5):
        synth = SynthConfig(n_instances=240,
                            class_proportions={"NP": 0.75, "AC": 0.25 / 3,
                                               "DT": 0.25 / 3, "IE": 0.25 / 3},
                            noise=0.2, seed=seed, t=150)
        ds = generate_synthetic(synth)
        cfg = Config(seed=seed)
        train_ds, val_ds = split(ds, 0.8, SeededRng(seed).derive(STREAM_SPLIT))
        pool = discover(train_ds, cfg)
        with_aug = workflow.fit(train_ds, val_ds, cfg, pool=pool)
        without = workflow.fit(train_ds, val_ds,
                               cfg.with_updates(use_augment=False), pool=pool)
        f_sa, f_s = _minority_mean(with_aug.report), _minority_mean(without.report)
        pairs.append((f_sa, f_s))
        if f_sa >= f_s - 0.02:
            wins += 1
    assert wins >= 4, f"augmented run lost minority F1 on {5 - wins}/5 seeds: {pairs}"
    detail = " ".join(f"{a:.3f}/{b:.3f}" for a, b in pairs)
    _report(8, f"minority F1 with/without augmentation per seed: {detail}; {wins}/5")


# -- 9: ventilator-only channel subset degrades the effort-only class -------

def test_criterion_09_channel_subset_runs_and_degrades_ie(tmp_path):
    props = json.dumps({"NP": 0.7, "AC": 0.1, "DT": 0.1, "IE": 0.1})
    base = ["run-all", "--n", "400", "--proportions", props, "--seed", "2"]
    assert main(base + ["--out-dir", str(tmp_path / "four")]) == 0
    assert main(base + ["--out-dir", str(tmp_path / "two"), "--channels", "0,1"]) == 0
    f1_four = json.loads((tmp_path / "four" / "metrics.json").read_text())["per_class_f1"]
    f1_two = json.loads((tmp_path / "two" / "metrics.json").read_text())["per_class_f1"]
    assert f1_two["IE"] < f1_four["IE"]
    _report(9, f"IE F1 {f1_four['IE']:.3f} on 4 channels vs "
               f"{f1_two['IE']:.3f} on channels 0,1")


# -- 10: the k grid is pinned and tuning is a deterministic member ----------

def test_criterion_10_k_grid_and_tuning_deterministic():
    assert k_grid(150) == [3, 4, 6, 7, 8, 10, 11, 12, 14, 15]
    assert k_grid(30) == [3]
    assert k_grid(300) == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]
    synth = SynthConfig(n_instances=20,
                        class_proportions={"NP": 0.4, "AC": 0.2, "DT": 0.2, "IE": 0.2},
                        noise=0.05, seed=4, t=30)
    ds = generate_synthetic(synth)
    cfg = Config(g=8, max_epochs=5, seed=4)
    a = tune_k(ds, cfg.with_updates(folds=2))
    b = tune_k(ds, cfg.with_updates(folds=2))
    assert a.best_k in k_grid(30)
    assert a.best_k == b.best_k
    assert a.scores == b.scores
    _report(10, f"grids pinned, tuned k={a.best_k} stable across reruns")


# -- 11: BLAS thread count never reaches result bytes ------------------------

def test_criterion_11_thread_count_invisible_in_artifacts(tmp_path):
    # OpenBLAS reads its thread count once, when numpy loads it, so each run
    # is a fresh interpreter.
    src = os.path.dirname(os.path.dirname(pvashape.__file__))

    def run(threads):
        d = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "pvashape.cli", "run-all", "--out-dir", str(d),
                        "--n", "300", "--seed", "7"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return d

    a, b = run(1), run(2)
    for name in ("pool.json", "checkpoint.json", "metrics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _report(11, "pool, checkpoint and metrics byte-identical at 1 and 2 BLAS threads")
