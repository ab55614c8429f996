"""Independent reference implementations used to check the package.

Everything here is written as plain scalar loops from the definitions,
sharing no code with pvashape, so agreement means something.
"""
import bisect
import math

import numpy as np


def complexity(q):
    return math.sqrt(sum((b - a) ** 2 for a, b in zip(q, q[1:])))


def cid(q, s):
    if len(q) != len(s):
        raise ValueError("length mismatch")
    ed = math.sqrt(sum((a - b) ** 2 for a, b in zip(q, s)))
    ca, cb = complexity(q), complexity(s)
    return ed * (max(ca, cb) / max(min(ca, cb), 1e-8))


def znorm(w):
    w = [float(v) for v in w]
    mu = sum(w) / len(w)
    sd = math.sqrt(sum((v - mu) ** 2 for v in w) / len(w))
    sd = max(sd, 1e-8)
    return [(v - mu) / sd for v in w]


def psd(series, original_length, query, use_znorm=False):
    """Full-window enumeration; returns (distance, offset), first minimum."""
    series = [float(v) for v in series]
    q = znorm(query) if use_znorm else [float(v) for v in query]
    l = len(q)
    best_d, best_j = math.inf, -1
    for j in range(original_length - l + 1):
        w = series[j : j + l]
        if use_znorm:
            w = znorm(w)
        d = cid(q, w)
        if d < best_d:
            best_d, best_j = d, j
    return best_d, best_j


def chord_distance(series, a, b, t):
    dx = b - a
    dy = float(series[b]) - float(series[a])
    num = abs(dy * (t - a) - dx * (float(series[t]) - float(series[a])))
    return num / math.hypot(dx, dy)


def pip_steps(series, k):
    """Recompute every bracketed distance per insertion; strict > scan keeps
    the smallest index on ties. Returns [(added_index, pips_after), ...]."""
    n = len(series)
    pips = [0, n - 1]
    steps = []
    for _ in range(k - 2):
        best_t, best_d = None, -1.0
        for t in range(n):
            if t in pips:
                continue
            a = max(p for p in pips if p < t)
            b = min(p for p in pips if p > t)
            d = chord_distance(series, a, b, t)
            if d > best_d:
                best_d, best_t = d, t
        pips.append(best_t)
        pips.sort()
        steps.append((best_t, tuple(pips)))
    return steps


def candidate_rows(instances, k):
    """The per-instance bisect loop that ``discovery.generate_candidates``
    replaced with array operations, on ``pip_steps``' insertions: the
    (instance, channel, start, end) of every unique span of three
    consecutive points after each insertion, in instance, channel,
    insertion, z order. Instances shorter than ``k`` give none."""
    out = []
    for i, x in enumerate(instances):
        if x.original_length < k:
            continue
        seen = set()
        for ch in range(x.n_channels):
            p = [0, x.original_length - 1]
            for t, _ in pip_steps(x.values[ch, : x.original_length], k):
                idx = bisect.bisect_left(p, t)
                p.insert(idx, t)
                for z in (0, 1, 2):
                    i0, i2 = idx - z, idx + 2 - z
                    if i0 < 0 or i2 > len(p) - 1:
                        continue
                    start, end = p[i0], p[i2]
                    if end - start + 1 < 3 or (ch, start, end) in seen:
                        continue
                    seen.add((ch, start, end))
                    out.append((i, ch, start, end))
    return out


def entropy_bits(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def info_gain(pairs):
    """Exhaustive search over every midpoint between distinct sorted
    distances; ties keep the smallest threshold. Degenerate -> (0, min)."""
    pairs = sorted(pairs, key=lambda p: p[0])
    dists = [d for d, _ in pairs]
    n = len(pairs)
    k_total = sum(1 for _, t in pairs if t)
    parent = entropy_bits([k_total, n - k_total])
    best_gain, best_thr = 0.0, None
    for i in range(n - 1):
        if dists[i + 1] <= dists[i]:
            continue
        thr = (dists[i] + dists[i + 1]) / 2.0
        n_l = i + 1
        k_l = sum(1 for d, t in pairs[:n_l] if t)
        h_l = entropy_bits([k_l, n_l - k_l])
        h_r = entropy_bits([k_total - k_l, (n - n_l) - (k_total - k_l)])
        gain = parent - (n_l / n) * h_l - ((n - n_l) / n) * h_r
        if best_thr is None or gain > best_gain:
            best_gain, best_thr = gain, thr
    if best_thr is None or best_gain <= 1e-12:
        return 0.0, min(dists)
    return best_gain, best_thr


def phi(d):
    return math.copysign(math.log1p(abs(d)), d)


def logsig_terms(series, depth):
    """Order-1 sum of signed logs of increments; higher orders weight each
    pairwise signed-log difference by comb(first index, order - 2)."""
    xs = [float(v) for v in series]
    out = [sum(phi(b - a) for a, b in zip(xs, xs[1:]))]
    for order in range(2, depth + 1):
        total = 0.0
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                total += math.comb(i, order - 2) * phi(xs[j] - xs[i])
        out.append(total)
    return out


def logsig_loop(x, depth):
    """The per-(instance, channel) loop that ``features.logsig_transform``
    batched, kept verbatim as the bit-exact reference for it."""
    def signed_log(d):
        d = np.asarray(d, dtype=np.float64)
        return np.sign(d) * np.log1p(np.abs(d))

    def channel_terms(series, depth):
        n = len(series)
        terms = np.zeros(depth)
        terms[0] = float(np.sum(signed_log(np.diff(series))))
        if depth >= 2:
            diffs = signed_log(series[None, :] - series[:, None])
            row_sums = np.triu(diffs, k=1).sum(axis=1)        # over b > a, per a
            a = np.arange(n)
            for order in range(2, depth + 1):
                coef = np.array([math.comb(int(ai), order - 2) for ai in a], dtype=np.float64)
                terms[order - 1] = float(np.dot(coef, row_sums))
        return terms

    out = np.zeros(x.n_channels * depth)
    for v in range(x.n_channels):
        out[v * depth : (v + 1) * depth] = channel_terms(x.channel(v), depth)
    return out


def logsig_stacked(instances, depth, chunk_bytes):
    """The batched form ``features.logsig_transform`` had before it stacked
    rows per chunk: every same-length (instance, channel) row stacked at
    once, then walked in chunks of ``chunk_bytes``. Kept verbatim as the
    bit-exact reference for the per-chunk form."""
    def signed_log(d):
        d = np.asarray(d, dtype=np.float64)
        return np.sign(d) * np.log1p(np.abs(d))

    def series_terms(series, depth):
        r, n = series.shape
        terms = np.zeros((r, depth))
        step = max(1, chunk_bytes // (8 * n * n))
        if depth >= 2:
            a_idx, b_idx = np.triu_indices(n, 1)
            flat = a_idx * n + b_idx
            coef = [np.array([math.comb(int(ai), order - 2) for ai in range(n)],
                             dtype=np.float64) for order in range(2, depth + 1)]
            diffs = np.zeros((min(step, r), n * n))
        for lo in range(0, r, step):
            s = series[lo : lo + step]
            k = len(s)
            terms[lo : lo + k, 0] = signed_log(np.diff(s, axis=1)).sum(axis=1)
            if depth < 2:
                continue
            diffs[:k, flat] = signed_log(np.take(s, b_idx, axis=1) - np.take(s, a_idx, axis=1))
            row_sums = diffs[:k].reshape(k, n, n).sum(axis=2)
            for i in range(k):
                for order in range(2, depth + 1):
                    terms[lo + i, order - 1] = np.dot(coef[order - 2], row_sums[i])
        return terms

    n_channels = instances[0].n_channels
    out = np.zeros((len(instances), n_channels, depth))
    by_length = {}
    for i, x in enumerate(instances):
        by_length.setdefault(x.original_length, []).append(i)
    for n, rows in by_length.items():
        series = np.stack([instances[i].values[:, :n] for i in rows]).reshape(-1, n)
        out[rows] = series_terms(series, depth).reshape(len(rows), n_channels, depth)
    return out.reshape(len(instances), n_channels * depth)
