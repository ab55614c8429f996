"""Complexity-invariant subsequence distance against naive enumeration."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series
from pvashape.core import LabeledSeries, Shapelet, ValidationError
from pvashape.distance import (INSTANCE_CHUNK, MIN_TILE, QUERY_BLOCK, ShapeletLengthError,
                               complexity_estimate, match, match_pool, prepare_queries,
                               prepare_windows, prepared_min_cid, psd)


def test_complexity_constant_is_zero():
    assert complexity_estimate(np.array([5.0, 5.0, 5.0])) == 0.0


def test_complexity_alternating():
    assert complexity_estimate(np.array([0.0, 1.0, 0.0, 1.0])) == pytest.approx(
        math.sqrt(3), abs=1e-12)


def test_complexity_single_step():
    assert complexity_estimate(np.array([1.0, 3.0])) == 2.0


def _one_window(q, s):
    """CID of two equal-length vectors: ``match`` with a query as long as
    the series, so there is one window."""
    d, o = match(np.asarray(s, dtype=float)[None, :], [len(s)],
                 np.asarray(q, dtype=float)[None, :])
    assert o[0, 0] == 0
    return d[0, 0]


def test_cid_identical_is_zero():
    q = np.array([0.3, -1.2, 4.0])
    assert _one_window(q, q.copy()) == 0.0


def test_cid_equal_complexity():
    # ED = 2, both CE = sqrt(2), factor 1
    assert _one_window([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)


def test_cid_penalizes_complexity_mismatch():
    # ED = 1, CE 2 vs 1, factor 2
    assert _one_window([0.0, 2.0], [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_psd_exact_match():
    x = make_series([0, 1, 2, 1])
    m = psd(x, 0, np.array([1.0, 2.0]))
    assert m.psd == 0.0
    assert m.offset == 1
    assert np.array_equal(m.window, [1.0, 2.0])


def test_psd_spec_of_three_windows():
    x = make_series([0, 1, 3])
    m = psd(x, 0, np.array([0.0, 2.0]))
    assert m.psd == pytest.approx(math.sqrt(2), abs=1e-7)
    assert m.offset == 1


def test_psd_tie_takes_smallest_offset():
    x = make_series([1, 2, 1, 2, 1])
    m = psd(x, 0, np.array([1.0, 2.0]))
    assert m.psd == 0.0
    assert m.offset == 0


def test_psd_ignores_padded_tail():
    # exact match hidden in the padding must not be found
    x = LabeledSeries(id="p", values=np.array([[5, 1, 9, 0, 0, 0, 0, 0.0]]),
                      label="NP", original_length=3, channel_names=("c",))
    m = psd(x, 0, np.array([9.0, 0.0]))
    assert m.offset == 0
    assert m.psd > 1.0


def test_psd_query_longer_than_instance_raises():
    x = make_series([0, 1, 2], original_length=3, pad_to=10)
    with pytest.raises(ShapeletLengthError):
        psd(x, 0, np.zeros(4))


def test_psd_matches_oracle_random():
    gen = np.random.default_rng(0)
    for trial in range(60):
        t = int(gen.integers(4, 33))
        n = int(gen.integers(3, t + 1))
        l = int(gen.integers(2, min(8, n) + 1))
        vals = gen.normal(size=t)
        vals[n:] = 0.0
        x = LabeledSeries(id=f"r{trial}", values=vals[None, :], label="NP",
                          original_length=n, channel_names=("c",))
        q = gen.normal(size=l)
        for zn in (False, True):
            want_d, want_j = oracles.psd(vals, n, q, use_znorm=zn)
            got = psd(x, 0, q, znorm=zn)
            assert got.psd == pytest.approx(want_d, abs=1e-9)
            assert got.offset == want_j


def test_match_matches_oracle_per_window():
    # one instance per window of a series: each row's only window is scored
    gen = np.random.default_rng(3)
    series = gen.normal(size=20)
    q = gen.normal(size=5)
    windows = np.stack([series[j : j + 5] for j in range(len(series) - 5 + 1)])
    d, off = match(windows, np.full(len(windows), 5), q[None, :])
    assert np.array_equal(off[:, 0], np.zeros(len(windows)))
    for j, w in enumerate(windows):
        assert d[j, 0] == pytest.approx(oracles.cid(q, w), abs=1e-9)


def _random_batch(gen, m=12, t=40):
    lengths = gen.integers(6, t + 1, size=m)
    values = gen.normal(size=(m, t))
    for i, n in enumerate(lengths):
        values[i, n:] = 0.0
    return values, lengths.astype(np.int64)


def _kernel(values, lengths, queries, znorm=False):
    """Discovery's kernel: windows prepared per instance chunk, queries per
    fixed block."""
    values, lengths = np.asarray(values), np.asarray(lengths)
    blocks = [prepare_queries(queries[lo : lo + QUERY_BLOCK], znorm)
              for lo in range(0, len(queries), QUERY_BLOCK)]
    chunks = []
    for i0 in range(0, len(values), INSTANCE_CHUNK):
        prep = prepare_windows(values[i0 : i0 + INSTANCE_CHUNK],
                               lengths[i0 : i0 + INSTANCE_CHUNK], queries.shape[1], znorm=znorm)
        chunks.append(np.concatenate([prepared_min_cid(prep, q) for q in blocks], axis=1))
    return np.concatenate(chunks)


def test_kernel_agrees_with_match_on_mixed_magnitude_rows():
    """Rows whose first half is six orders of magnitude above the second:
    every window norm and complexity is summed over its own window, so the
    small half's windows keep full precision however large the rest of
    the row is."""
    gen = np.random.default_rng(11)
    m, t, l = 2 * INSTANCE_CHUNK + 3, 60, 7
    values = np.concatenate([gen.normal(scale=1e3, size=(m, t // 2)),
                             gen.normal(scale=1e-3, size=(m, t - t // 2))], axis=1)
    lengths = np.full(m, t)
    queries = gen.normal(scale=1e-3, size=(5, l))
    want, _ = match(values, lengths, queries)
    assert np.allclose(_kernel(values, lengths, queries), want, rtol=1e-12, atol=0)
    prep = prepare_windows(values, lengths, l)
    ce2 = [[complexity_estimate(row[j : j + l]) ** 2 for j in range(prep.w)] for row in values]
    assert np.allclose(prep.ce2, ce2, rtol=1e-12, atol=0)


def test_batch_matches_scalar_plain():
    gen = np.random.default_rng(7)
    values, lengths = _random_batch(gen)
    queries = [gen.normal(size=int(gen.integers(2, 7))) for _ in range(9)]
    for l in {len(q) for q in queries}:
        qs = np.stack([q for q in queries if len(q) == l])
        d = _kernel(values, lengths, qs)
        for i in range(len(values)):
            x = LabeledSeries(id=str(i), values=values[i][None, :], label="NP",
                              original_length=int(lengths[i]), channel_names=("c",))
            for j in range(len(qs)):
                assert d[i, j] == pytest.approx(psd(x, 0, qs[j]).psd, rel=1e-9, abs=1e-9)


def test_batch_matches_scalar_znorm_distances():
    # the kernel factors the squared distance through one matmul, so under
    # z-normalization it agrees with the exact engine to a looser tolerance
    gen = np.random.default_rng(8)
    values, lengths = _random_batch(gen)
    qs = gen.normal(size=(6, 5))
    d = _kernel(values, lengths, qs, znorm=True)
    for i in range(len(values)):
        x = LabeledSeries(id=str(i), values=values[i][None, :], label="NP",
                          original_length=int(lengths[i]), channel_names=("c",))
        for j in range(len(qs)):
            m = psd(x, 0, qs[j], znorm=True)
            assert d[i, j] == pytest.approx(m.psd, rel=1e-6, abs=1e-6)


def test_batch_marks_too_short_instances():
    values = np.zeros((3, 10))
    values[:, :4] = [[1, 2, 3, 4], [0, 1, 0, 1], [2, 2, 2, 2]]
    lengths = np.array([4, 3, 4])
    d = _kernel(values, lengths, np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert d[0, 0] == 0.0
    assert np.isinf(d[1, 0])
    assert np.isfinite(d[2, 0])


# ---------------------------------------------------------------------------
# Property tests: the matching engine against the scalar oracle
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def padded_case(draw):
    """One zero-padded series plus a query that fits its unpadded region.

    Small integer alphabets make exact ties common; the query length runs
    up to the whole unpadded length."""
    n = draw(st.integers(3, 24))
    pad = draw(st.integers(0, 8))
    l = draw(st.integers(1, n))
    if draw(st.booleans()):
        elems = st.integers(-3, 3).map(float)
    else:
        elems = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    series = draw(st.lists(elems, min_size=n, max_size=n))
    query = draw(st.lists(elems, min_size=l, max_size=l))
    values = np.zeros(n + pad)
    values[:n] = series
    return values, n, np.asarray(query)


@PROPERTY
@given(padded_case(), st.booleans())
def test_match_agrees_with_oracle(case, use_z):
    values, n, q = case
    d, off = match(values[None, :], [n], q[None, :], znorm=use_z)
    got_d, got_j = d[0, 0], int(off[0, 0])
    want_d, want_j = oracles.psd(values, n, q, use_znorm=use_z)
    assert 0 <= got_j <= n - len(q)          # never a window in the padding
    assert got_d == pytest.approx(want_d, rel=1e-9, abs=1e-9)
    ints = np.all(values == np.round(values)) and np.all(q == np.round(q))
    if ints and not use_z:
        # integer inputs are exact in both paths: equal distances, equal ties
        assert got_d == want_d and got_j == want_j
    else:
        w = values[got_j : got_j + len(q)]
        q_ref = oracles.znorm(q) if use_z else list(q)
        w_ref = oracles.znorm(w) if use_z else list(w)
        assert oracles.cid(q_ref, w_ref) == pytest.approx(want_d, rel=1e-9, abs=1e-9)


@PROPERTY
@given(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=6),
       st.integers(2, 5), st.integers(0, 5), st.integers(1, 6), st.booleans())
def test_match_ties_go_to_first_offset(pattern, reps, pad, l, use_z):
    k = len(pattern)
    n = k * reps
    l = min(l, n)
    values = np.zeros(n + pad)
    values[:n] = np.tile(pattern, reps)
    # the series repeats with period k, so offsets j and j + k tie exactly
    d, off = match(values[None, :], [n], values[None, :l], znorm=use_z)
    assert d[0, 0] == 0.0 and off[0, 0] == 0
    q = np.asarray(pattern[::-1] * 2)[:l]
    d, off = match(values[None, :], [n], q[None, :], znorm=use_z)
    assert off[0, 0] < k


@PROPERTY
@given(st.floats(-1e3, 1e3), st.integers(3, 20), st.integers(0, 5), st.booleans())
def test_match_constant_series_takes_offset_zero(level, n, pad, use_z):
    values = np.zeros(n + pad)
    values[:n] = level
    q = np.linspace(-1.0, 1.0, max(2, n // 2))
    d, off = match(values[None, :], [n], q[None, :], znorm=use_z)
    assert off[0, 0] == 0
    want_d, _ = oracles.psd(values, n, q, use_znorm=use_z)
    assert d[0, 0] == pytest.approx(want_d, rel=1e-9, abs=1e-9)


def _shapelet(values, channel):
    return Shapelet(values=values, channel=channel, source_id="s", start=0,
                    end=len(values) - 1, label="NP")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2 * INSTANCE_CHUNK + 5), st.booleans())
def test_match_pool_independent_of_batching(seed, m, use_z):
    gen = np.random.default_rng(seed)
    t = 24
    instances = []
    for i in range(m):
        n = int(gen.integers(3, t + 1))
        vals = np.zeros((2, t))
        vals[:, :n] = gen.integers(-2, 3, size=(2, n)) if i % 3 == 0 else gen.normal(size=(2, n))
        instances.append(LabeledSeries(id=f"i{i}", values=vals, label="NP",
                                       original_length=n, channel_names=("a", "b")))
    shapelets = [_shapelet(gen.normal(size=int(gen.integers(2, 9))), int(gen.integers(2)))
                 for _ in range(7)]
    d, off = match_pool(instances, shapelets, use_z)
    d_rev, off_rev = match_pool(instances[::-1], shapelets, use_z)
    assert np.array_equal(d_rev[::-1], d) and np.array_equal(off_rev[::-1], off)
    d_two, off_two = match_pool(instances, shapelets, use_z, threads=2)
    assert np.array_equal(d_two, d) and np.array_equal(off_two, off)
    for i in range(0, m, max(1, m // 7)):
        x = instances[i]
        d_one, off_one = match_pool([x], shapelets, use_z)
        assert np.array_equal(d_one[0], d[i]) and np.array_equal(off_one[0], off[i])
        for j, s in enumerate(shapelets):
            if len(s) > x.original_length:
                assert np.isinf(d[i, j]) and off[i, j] == -1
                continue
            one = psd(x, s.channel, s.values, znorm=use_z)
            assert one.psd == d[i, j] and one.offset == off[i, j]


# ---------------------------------------------------------------------------
# Property tests: discovery's kernel against the scalar oracle
# ---------------------------------------------------------------------------

def _draw(gen, kind, n):
    if kind == "integers":                  # exact arithmetic, many exact matches
        return gen.integers(-3, 4, size=n).astype(float)
    if kind == "near-constant":             # tiny wiggles on a large level
        level = gen.uniform(-200.0, 200.0)
        return level + 10.0 ** gen.uniform(-9.0, -3.0) * gen.normal(size=n)
    return gen.normal(size=n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, INSTANCE_CHUNK + MIN_TILE + 3),
       st.integers(3, 14), st.sampled_from(["3", "T", "any"]),
       st.sampled_from(["normal", "near-constant", "integers"]), st.booleans())
def test_kernel_agrees_with_oracle(seed, m, t, l_kind, kind, use_z):
    """Any batch size (across MIN_TILE and INSTANCE_CHUNK boundaries),
    ragged padded rows, rows too short for the query, l = 3 and l = T."""
    gen = np.random.default_rng(seed)
    l = {"3": 3, "T": t, "any": int(gen.integers(3, t + 1))}[l_kind]
    lengths = gen.integers(1, t + 1, size=m)
    values = np.zeros((m, t))
    for i, n in enumerate(lengths):
        values[i, :n] = _draw(gen, kind, n)
    queries = np.stack([_draw(gen, kind, l) for _ in range(2)])
    d = _kernel(values, lengths, queries, znorm=use_z)
    assert d.shape == (m, 2)
    tol = dict(rel=1e-6, abs=1e-6) if use_z else dict(rel=1e-9, abs=1e-9)
    for i in range(m):
        for j, q in enumerate(queries):
            if lengths[i] < l:
                assert d[i, j] == np.inf
                continue
            want, _ = oracles.psd(values[i], int(lengths[i]), q, use_znorm=use_z)
            assert d[i, j] == pytest.approx(want, **tol)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.booleans())
def test_kernel_self_match_error_is_bounded(seed, t, use_z):
    """The matmul expansion cancels near an exact float match, so a window
    scored against itself reads a small positive distance, not 0; it stays
    below sqrt(l * eps) times the query's scale."""
    gen = np.random.default_rng(seed)
    values = gen.normal(scale=10.0 ** gen.uniform(-3, 3), size=(1, t))
    l = int(gen.integers(3, t + 1))
    j = int(gen.integers(0, t - l + 1))
    q = values[:, j : j + l]
    d = _kernel(values, [t], q, znorm=use_z)[0, 0]
    scale = np.sqrt(l) if use_z else np.linalg.norm(q)
    assert 0.0 <= d <= 4.0 * np.sqrt(l * np.finfo(float).eps) * scale


def test_match_pool_refuses_a_channel_the_data_lacks():
    x = make_series([[1, 2, 3, 4], [4, 3, 2, 1]])
    inside = Shapelet(values=np.array([2.0, 3.0]), channel=1, source_id="x0",
                      start=1, end=2, label="NP")
    outside = dataclasses.replace(inside, channel=2)
    assert match_pool([x], [inside])[0][0, 0] == pytest.approx(math.sqrt(2), abs=1e-12)
    with pytest.raises(ValidationError, match="channel 2 is out of range for data with 2"):
        match_pool([x], [inside, outside])


def test_shapelet_refuses_a_negative_channel():
    with pytest.raises(ValidationError, match="channel -1 is negative"):
        Shapelet(values=np.array([2.0, 3.0]), channel=-1, source_id="x0",
                 start=1, end=2, label="NP")


# ---------------------------------------------------------------------------
# What discovery's pruned scan relies on
# ---------------------------------------------------------------------------

def _padded_chunk(seed, m=INSTANCE_CHUNK, t=40):
    gen = np.random.default_rng(seed)
    lengths = gen.integers(12, t + 1, size=m)
    values = gen.normal(size=(m, t))
    for i, n in enumerate(lengths):
        values[i, n:] = 0.0
    return values, lengths.astype(np.int64), gen.normal(size=(QUERY_BLOCK, 9))


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_is_bitwise_stable_under_row_permutation(seed):
    """The same matmul shape with instances in another order gives each
    instance the same distances, to the bit."""
    values, lengths, queries = _padded_chunk(seed)
    perm = np.random.default_rng(seed + 10).permutation(len(values))
    queries = prepare_queries(queries)
    d = prepared_min_cid(prepare_windows(values, lengths, 9), queries)
    d_perm = prepared_min_cid(prepare_windows(values[perm], lengths[perm], 9), queries)
    assert np.array_equal(d[perm], d_perm)


@pytest.mark.parametrize("znorm", [False, True])
def test_windows_prepared_per_chunk_are_slices_of_the_whole(znorm):
    values, lengths, _ = _padded_chunk(2, m=2 * INSTANCE_CHUNK + 5)
    whole = prepare_windows(values, lengths, 9, znorm=znorm)
    for i0 in range(0, len(values), INSTANCE_CHUNK):
        i1 = min(i0 + INSTANCE_CHUNK, len(values))
        part = prepare_windows(values[i0:i1], lengths[i0:i1], 9, znorm=znorm)
        w = whole.w
        assert np.array_equal(part.flat, whole.flat[i0 * w : i1 * w])
        for field in ("invalid", "ce2", "inv_ce2"):
            assert np.array_equal(getattr(part, field), getattr(whole, field)[i0:i1]), field


@pytest.mark.parametrize("every", [3, 2])
def test_checked_columns_leave_scored_distances_unchanged(every):
    """Masking columns out, on either side of the half-live switch to
    gathered columns, keeps the others' bits."""
    values, lengths, queries = _padded_chunk(3)
    prep = prepare_windows(values, lengths, 9)
    queries = prepare_queries(queries)
    assert len(queries) == QUERY_BLOCK
    full = prepared_min_cid(prep, queries)
    live = np.arange(QUERY_BLOCK) % every != 0
    out = np.empty_like(full)
    sub = prepared_min_cid(prep, queries, live, out=out)
    assert sub is out
    assert np.array_equal(sub[:, live], full[:, live])
    assert np.isnan(sub[:, ~live]).all()


@pytest.mark.parametrize("l,znorm", [(8, False), (9, True)])
def test_kernel_refuses_queries_prepared_for_other_windows(l, znorm):
    values, lengths, queries = _padded_chunk(4)
    prep = prepare_windows(values, lengths, 9)
    with pytest.raises(ValueError, match="do not match windows of length 9"):
        prepared_min_cid(prep, prepare_queries(queries[:, :l], znorm))
