"""Candidate generation, information gain, and pool discovery."""
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series
from pvashape import discovery, distance
from pvashape.core import Config, Dataset
from pvashape.discovery import (_gain_block, _gain_bound, _parent_entropy, discover,
                                generate_candidates, load_pool, pool_from_dict, pool_to_dict,
                                save_pool)
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
    assert (cands.start[0], cands.end[0], cands.channel[0]) == (0, 4, 0)
    assert cands.source[0] == 0 and cands.labels[cands.label[0]] == x.label
    (c,) = cands.shapelets([0])
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
        rows = zip(cands.channel.tolist(), cands.start.tolist(), cands.end.tolist(),
                   cands.shapelets(range(len(cands))))
        for channel, start, end, c in rows:
            key = (channel, start, end)
            assert key not in seen
            seen.add(key)
            per_channel[channel] += 1
            assert 0 <= start < end < n
            assert end - start + 1 >= 3
            assert np.array_equal(c.values, x.values[channel, start : end + 1])
        for v in per_channel.values():
            assert v <= 3 * (k - 2)


@pytest.mark.parametrize("seed", range(6))
def test_candidate_table_equals_the_reference_loop(seed):
    """Multi-channel instances, some padded and some shorter than k: the
    table's rows, in order, are the ones the per-instance loop emits."""
    gen = np.random.default_rng(seed)
    k, t = int(gen.integers(3, 9)), int(gen.integers(8, 30))
    rows = []
    for i in range(int(gen.integers(1, 12))):
        n = int(gen.integers(3, t + 1)) if i % 3 else t
        values = gen.normal(size=(3, n))
        if i % 4 == 1:
            values = np.round(values)                   # tied chord distances
        rows.append(make_series(values, label=["NP", "AC", "DT"][i % 3], id=f"r{i}",
                                pad_to=t))
    cands = generate_candidates(rows, k)
    got = list(zip(cands.source.tolist(), cands.channel.tolist(), cands.start.tolist(),
                   cands.end.tolist()))
    assert got == oracles.candidate_rows(rows, k)
    assert [cands.labels[j] for j in cands.label] == [rows[i].label for i, *_ in got]


def test_lexsort_ranking_equals_sorted_key_tuples():
    """Gain ties, and source ids whose string order is not dataset order
    (``syn-10`` < ``syn-9``): the lexsorts give the order of ``sorted``
    over (-gain, length, start, source id, index)."""
    gen = np.random.default_rng(7)
    ids = [f"syn-{i}" for i in range(12)]
    n = 400
    gain = gen.integers(0, 4, size=n) / 4.0
    length = gen.integers(3, 6, size=n)
    start = gen.integers(0, 3, size=n)
    source = gen.integers(0, len(ids), size=n)
    assert ids[10] < ids[9] and {9, 10} <= set(source.tolist())
    idx = gen.permutation(n)[: n // 2]
    want = sorted(idx.tolist(), key=lambda i: (-gain[i], length[i], start[i], ids[source[i]], i))
    tie_rank = discovery._tie_ranks(length, start, source, ids)
    assert discovery._ranked(idx, gain, tie_rank).tolist() == want


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


def test_discover_reruns_give_the_same_pool():
    ds = _motif_dataset()
    a = pool_to_dict(discover(ds, Config(k=4, g=6, seed=1)))
    b = pool_to_dict(discover(ds, Config(k=4, g=6, seed=1)))
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


# ---------------------------------------------------------------------------
# The gain bound and the pruned screen
# ---------------------------------------------------------------------------

# Unseen distances are placed on this grid: below, on and between the
# integer seen distances, so every order and every tie is reached.
COMPLETION_GRID = [v / 2.0 for v in range(-1, 10)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=6),
       st.lists(st.booleans(), max_size=3), st.integers(0, 3))
def test_gain_bound_covers_every_completion(seen, unseen, not_fitting):
    """Whatever distances the unseen instances turn out to have,
    `_gain_block` finds no gain above the bound, and the oracle none above
    it beyond the oracle's own rounding of the parent entropy; instances
    the candidate does not fit (+inf) stay out of both."""
    if not seen and not unseen:
        seen = [(0, True)]
    d = np.array([[float(v) for v, _ in seen]]).reshape(1, len(seen))
    y = np.array([[t for _, t in seen]], dtype=bool).reshape(1, len(seen))
    u_t = sum(unseen)
    cap = _parent_entropy(np.array([y.sum() + u_t]), np.array([y.size + len(unseen)]))[0, 0]
    bound = _gain_bound(d, y, np.array([u_t]), np.array([len(unseen) - u_t]),
                        np.array([cap]))[0]

    completions = list(itertools.product(COMPLETION_GRID, repeat=len(unseen)))
    rows = np.array([[v for v, _ in seen] + list(c) + [math.inf] * not_fitting
                     for c in completions])
    labels = [t for _, t in seen] + list(unseen) + [True, False, True][:not_fitting]
    gains, _ = _gain_block(rows, np.tile(np.array(labels, dtype=bool), (len(rows), 1)))
    assert gains.max() <= bound
    for c in completions:
        pairs = [(float(v), t) for v, t in seen] + list(zip(c, unseen))
        assert oracles.info_gain(pairs)[0] <= bound + 1e-12


@pytest.mark.parametrize("targets,others", [(1, 1), (3, 5), (6, 235), (50, 1550)])
def test_bound_cap_is_the_gain_of_a_perfect_split(targets, others):
    """The cap is the gain `_gain_block` gives a perfect split, to the bit,
    so a saturated tie is settled by the tie-break alone; with nothing
    seen, the bound itself reaches it."""
    cap = _parent_entropy(np.array([targets]), np.array([targets + others]))[0, 0]
    row = np.r_[np.zeros(targets), np.ones(others)][None, :]
    gains, _ = _gain_block(row, row == 0)
    assert cap == gains[0]
    assert _gain_bound(np.empty((1, 0)), np.empty((1, 0), dtype=bool), np.array([targets]),
                       np.array([others]), np.array([cap]))[0] == cap


def _imbalanced_padded_dataset():
    """Mostly NP, with minority classes whose motifs split their class off
    perfectly, and every fifth instance padded."""
    ds = generate_synthetic(SynthConfig(
        n_instances=60, t=40, seed=2,
        class_proportions={"NP": 0.8, "AC": 0.1, "DT": 0.05, "IE": 0.05}))
    rows = []
    for j, x in enumerate(ds):
        if j % 5 == 0:
            n = x.original_length - 6
            values = x.values.copy()
            values[:, n:] = 0.0
            x = replace(x, values=values, original_length=n)
        rows.append(x)
    return Dataset(tuple(rows))


def _never_prune(patch):
    """Keep every candidate live: no bound or cap rules one out."""
    patch.setattr(discovery, "_beats",
                  lambda bound, floor, tie_worse: np.ones(len(bound), dtype=bool))


@pytest.fixture
def small_chunks(monkeypatch):
    """Scan in chunks of 8 instances, so a probe offset is a multiple of 8."""
    monkeypatch.setattr(distance, "INSTANCE_CHUNK", 8)
    monkeypatch.setattr(distance, "MIN_TILE", 2)


def test_pruning_leaves_the_pool_unchanged(monkeypatch):
    """Chunks of 8 instances, then one chunk that holds the whole split,
    which is probed to 0: only the cap, the bound with nothing seen,
    can prune it."""
    ds = _imbalanced_padded_dataset()
    assert any(x.original_length < x.length for x in ds) and len(ds) <= 64
    cfg = Config(k=6, g=8, seed=0)
    monkeypatch.setattr(distance, "MIN_TILE", 2)
    for chunk in (8, 64):
        monkeypatch.setattr(distance, "INSTANCE_CHUNK", chunk)
        counters = {}
        pruned = pool_to_dict(discover(ds, cfg, counters=counters))
        assert sum(counters["pruned"].values()) > 0, chunk
        # a probe to 0 computes no bound from distances
        assert (counters["bound_checks"] > 0) == (chunk == 8)
        assert counters["matmuls_skipped"] > 0 or chunk == 64
        # with 8-instance chunks the probe pass runs to instance 24
        assert counters["probe_offset"] == (24 if chunk == 8 else 0)
        assert 0 < counters["rescanned"] < counters["candidates"]
        # a minority class saturates: its quota splits it off perfectly
        for s in pruned["shapelets"]:
            if s["label"] == "AC":
                fits = [x.label == "AC" for x in ds if x.original_length >= len(s["values"])]
                p = sum(fits) / len(fits)
                assert s["info_gain"] == pytest.approx(
                    -p * math.log2(p) - (1 - p) * math.log2(1 - p), abs=1e-12)

        unpruned = {}
        with monkeypatch.context() as patch:
            _never_prune(patch)
            assert pool_to_dict(discover(ds, cfg, counters=unpruned)) == pruned, chunk
        assert sum(unpruned["pruned"].values()) == 0 and unpruned["matmuls_skipped"] == 0


@pytest.mark.parametrize("m,n_minority,probe", [
    (256, 21, 64),                 # fit-imbalanced
    (640, 53, 128),                # run-all --n 800
    (1600, 131, 320),              # run-all --n 2000
    (80, 60, 0),                   # score: the first chunk end lies past half
    (512, 231, 0),                 # 55% NP: 512 lies past half
])
def test_probe_offset_is_the_first_check_past_twice_the_minority(m, n_minority, probe):
    assert discovery._probe_offset(m, n_minority) == probe


@pytest.mark.parametrize("m,n_minority,offsets", [
    (256, 21, [64, 128]),          # fit-imbalanced
    (256, 64, [64, 128]),
    (256, 65, [128]),
    (256, 192, []),                # balanced: no chunk end between the minority and half
    (256, 0, [64, 128]),           # all majority: the first chunk end
    (1600, 128, list(range(128, 801, 64))),
])
def test_check_offsets_start_after_the_minority_and_stop_at_half(m, n_minority, offsets):
    """``offsets`` are the chunk ends from the first past the minority up
    to ``m // 2``; the probe is the first of them at which as many majority
    instances as non-majority ones are seen, or 0 when none is."""
    assert offsets == [s for s in range(distance.INSTANCE_CHUNK, m // 2 + 1, distance.INSTANCE_CHUNK)
                       if s >= n_minority]
    probe = discovery._probe_offset(m, n_minority)
    assert probe == next((s for s in offsets if s >= 2 * n_minority), 0)


def test_the_bound_is_computed_once_per_probed_block(monkeypatch):
    """Chunks of 4 instances probe to instance 24; the completion pass
    computes no bound, not even at the chunk ends past the probe."""
    monkeypatch.setattr(distance, "INSTANCE_CHUNK", 4)
    monkeypatch.setattr(distance, "MIN_TILE", 2)
    seen = []
    gain_bound = discovery._gain_bound
    monkeypatch.setattr(discovery, "_gain_bound",
                        lambda dists, *rest: seen.append(dists.shape) or gain_bound(dists, *rest))
    ds = _imbalanced_padded_dataset()
    counters = {}
    discover(ds, Config(k=6, g=8, seed=0), counters=counters)
    assert counters["probe_offset"] == 24 and counters["rescanned"] > 0
    cands = generate_candidates(ds, 6)
    groups = Counter(zip(cands.channel.tolist(), cands.length.tolist()))
    blocks = sum(-(-n // distance.QUERY_BLOCK) for n in groups.values())
    assert len(seen) == counters["bound_checks"] == blocks
    assert max(s for _, s in seen) <= 24        # distances to probed instances only


def test_pool_and_counters_do_not_change_on_rerun(small_chunks):
    ds = _imbalanced_padded_dataset()
    runs = []
    for _ in range(2):
        counters = {}
        pool = discover(ds, Config(k=6, g=8, seed=0), counters=counters)
        runs.append((pool_to_dict(pool), counters))
    assert runs[0] == runs[1]
    assert runs[0][1]["probe_offset"] == 24 and runs[0][1]["rescanned"] > 0


def _balanced_dataset():
    return generate_synthetic(SynthConfig(
        n_instances=40, t=40, seed=4,
        class_proportions={"NP": 0.25, "AC": 0.25, "DT": 0.25, "IE": 0.25}))


def test_balanced_split_probes_to_zero(small_chunks, monkeypatch):
    """Three quarters non-majority: no chunk end at or past twice the
    minority count, so the probe is to instance 0 and groups complete in
    (channel, length) order, each column live while its cap beats its key."""
    ds = _balanced_dataset()
    cfg = Config(k=6, g=8, seed=0)
    counters = {}
    pool = pool_to_dict(discover(ds, cfg, counters=counters))
    assert counters["probe_offset"] == 0
    assert 0 < counters["rescanned"] < counters["candidates"]
    assert sum(counters["pruned"].values()) > 0
    with monkeypatch.context() as patch:
        _never_prune(patch)
        unpruned = {}
        assert pool_to_dict(discover(ds, cfg, counters=unpruned)) == pool
    assert sum(unpruned["pruned"].values()) == 0


def test_a_probe_to_zero_prepares_each_query_block_at_most_once(small_chunks, monkeypatch):
    """Only the completion pass builds screens when the probe is to 0."""
    calls = []
    prepare = discovery.prepare_queries
    monkeypatch.setattr(discovery, "prepare_queries",
                        lambda q: calls.append(len(q)) or prepare(q))
    ds = _balanced_dataset()
    counters = {}
    discover(ds, Config(k=6, g=8, seed=0), counters=counters)
    assert counters["probe_offset"] == 0
    cands = generate_candidates(ds, 6)
    groups = Counter(zip(cands.channel.tolist(), cands.length.tolist()))
    blocks = sum(-(-n // distance.QUERY_BLOCK) for n in groups.values())
    assert 0 < len(calls) <= blocks
