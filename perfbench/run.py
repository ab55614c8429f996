#!/usr/bin/env python3
"""Benchmark of the pvashape pipeline through its public CLI.

    python3 perfbench/run.py --workload fit-imbalanced --seed 0 --seconds 10 --trace 0

Run from the repository root. One process runs one workload: it imports
the program from ``src/`` and writes the held-out data drawn from
``--seed`` (set-up), then repeats cycles of ``run-all`` on the workload's
fixed training inputs, ``evaluate`` and ``explain --plot-data`` on the
held-out data, at least two cycles and as many as fit in ``--seconds``.
Every output it times is checked. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each cycle once untraced and once traced and
prints the per-layer metrics. The last line of stdout is one JSON object;
a fuller record (all samples, artifact hashes, environment) goes to
``perfbench/out/results/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

BALANCED = {"NP": 0.25, "AC": 0.25, "DT": 0.25, "IE": 0.25}
SETUP_REPEATS = 3            # set-up repeats before the first cycle ...
SETUP_REPEATS_PER_CYCLE = 2  # ... and after every untraced cycle
MIN_CYCLES = 2


@dataclass(frozen=True)
class Workload:
    """The training inputs are fixed (``fit_seed``); ``--seed`` draws the
    held-out data from the same class mix and noise. The held-out data is
    split into chunks, one CLI call each, so every cycle yields several
    throughput samples spread over the run."""

    n: int                    # run-all --n
    proportions: dict | None  # run-all/synth --proportions; None = paper-reference mix
    noise: float
    train_fraction: float
    fit_seed: int             # run-all --seed
    eval_chunks: tuple        # (count, instances) of held-out evaluate calls
    explain_chunks: tuple     # (count, instances) of explain calls


WORKLOADS = {
    # Discovery-dominated fit on the ~92% NP reference mix.
    # 256 training instances: two instance chunks of the batched kernel.
    "fit-imbalanced": Workload(n=320, proportions=None, noise=0.1, train_fraction=0.8,
                               fit_seed=0, eval_chunks=(3, 120), explain_chunks=(3, 24)),
    # A balanced noisy fit, where r_sa copies of three minority classes move
    # the fit's work into transform, augment and train and macro-F1 stays
    # near 0.9, then many held-out instances scored and explained: the
    # per-instance path.
    "score": Workload(n=160, proportions=BALANCED, noise=1.0, train_fraction=0.5,
                      fit_seed=0, eval_chunks=(5, 120), explain_chunks=(5, 24)),
}

E2E_UNITS = {
    "fit_s": "s",
    "fit_macro_f1": "ratio",
    "score_inst_per_s": "1/s",
    "score_macro_f1": "ratio",
    "explain_inst_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def count_lines(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


def macro_f1(confusions: list) -> float:
    """Macro-F1 of the summed confusion matrices (rows true, columns
    predicted); a class with a zero denominator scores 0, as in the program."""
    if not confusions:
        return float("nan")
    c = len(confusions[0])
    total = [[sum(m[i][j] for m in confusions) for j in range(c)] for i in range(c)]
    f1 = []
    for k in range(c):
        predicted = sum(total[i][k] for i in range(c))
        p = total[k][k] / predicted if predicted else 0.0
        r = total[k][k] / sum(total[k]) if sum(total[k]) else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(f1) / c


def environment() -> dict:
    import numpy as np
    from pvashape.core import Config

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cli_threads": Config().threads,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes
    import glob

    import numpy as np

    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pvashape")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(open(os.path.join(pkg, name), "rb").read())
    return h.hexdigest()


class Bench:
    """One workload run: CLI operations, their checks and their samples."""

    def __init__(self, name: str, wl: Workload, seed: int, seconds: float, work: str,
                 tracer):
        from pvashape import cli
        self.cli = cli
        self.name, self.wl, self.seed, self.seconds, self.work = name, wl, seed, seconds, work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, dict[str, str]] = {}
        self.setup_s: list[float] = []
        # Ledger entries are only comparable for the same program source and
        # identical workload settings: a change may alter bytes on purpose.
        spec = json.dumps(asdict(wl), sort_keys=True).encode()
        self.ledger_key = (f"{name}:{hashlib.sha256(spec).hexdigest()[:12]}"
                           f":src{src_digest()[:12]}")
        self.log = os.path.join(work, "cli.log")

    # -- operations ------------------------------------------------------------

    def op(self, argv: list[str], traced: bool = False):
        """Run one CLI command in-process; returns (exit code, seconds, span
        coverage). Coverage is the share of the command's time spent in
        traced child spans (None when untraced)."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        with open(self.log, "a") as fh, contextlib.redirect_stdout(fh):
            try:
                if traced:
                    self.tracer.active = True
                    code, seconds, child = self.tracer.span(f"op.{argv[0]}", self.cli.main, argv)
                    coverage = child / seconds
                else:
                    t0 = time.perf_counter()
                    code = self.cli.main(argv)
                    seconds, coverage = time.perf_counter() - t0, None
            except Exception:                       # a crash is a failed operation
                traceback.print_exc(file=sys.stderr)
                code, seconds, coverage = -1, float("nan"), None
            finally:
                if self.tracer is not None:
                    self.tracer.active = False
        return code, seconds, coverage

    def judge(self, what: str, problems: list[str]) -> bool:
        """Count one operation as failed if any of its checks failed."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def record_hashes(self, key: str, files: dict[str, str], ledger: dict) -> list[str]:
        """Hash result artifacts; they must match every earlier run of the
        same workload and fit seed, in this process and in the ledger."""
        digests = {name: sha256_file(path) for name, path in files.items()}
        out = []
        for earlier in (self.hashes.get(key), ledger.get(f"{self.ledger_key}/{key}")):
            if earlier is None:
                continue
            for name, digest in digests.items():
                if earlier.get(name, digest) != digest:
                    out.append(f"{name} sha256 {digest[:12]} differs from an earlier run "
                               f"({earlier[name][:12]})")
        self.hashes[key] = digests
        return out

    # -- set-up ----------------------------------------------------------------

    def synth_args(self, out: str, n: int, seed: int) -> list:
        argv = ["synth", "--out", out, "--n", n, "--noise", self.wl.noise, "--seed", seed]
        if self.wl.proportions is not None:
            argv += ["--proportions", json.dumps(self.wl.proportions)]
        return argv

    def setup_once(self) -> None:
        """One set-up repeat: import the CLI in a fresh interpreter, then
        write every held-out chunk, timed into ``setup_s``. The first repeat
        writes the files the cycles use; every later repeat must write the
        same bytes."""
        first = not self.setup_s
        d = os.path.join(self.work, "heldout" if first else "heldout-repeat")
        os.makedirs(d, exist_ok=True)
        seconds = import_seconds()
        t0 = time.perf_counter()
        files = {}
        for what, (count, size), base in (("eval", self.wl.eval_chunks, 1_000_000),
                                          ("explain", self.wl.explain_chunks, 2_000_000)):
            for c in range(count):
                path = files[f"{what}{c}"] = os.path.join(d, f"{what}{c}.ndjson")
                code, _, _ = self.op(self.synth_args(path, size, base + 100 * self.seed + c))
                self.judge(f"synth {what}{c}", [] if code == 0 else [f"exit code {code}"])
        seconds += time.perf_counter() - t0
        digests = {k: sha256_file(p) for k, p in files.items() if os.path.exists(p)}
        if first:
            self.heldout_digests = digests
            self.eval_paths = [files[f"eval{c}"] for c in range(self.wl.eval_chunks[0])]
            self.explain_paths = [files[f"explain{c}"] for c in range(self.wl.explain_chunks[0])]
        elif digests != self.heldout_digests:
            self.judge("setup", ["held-out files differ between set-up repeats"])
        self.setup_s.append(seconds)

    # -- one cycle -------------------------------------------------------------

    def cycle(self, ledger: dict, traced: bool = False) -> dict:
        """run-all, then evaluate and explain every held-out chunk, each
        checked. Content checks run on the first cycle; later cycles must
        reproduce its artifact hashes byte for byte. A failed check fails
        its operation but the cycle goes on, so every metric is measured."""
        from tracing import layer_values

        wl = self.wl
        d = os.path.join(self.work, "fit")
        first = not self.hashes
        sample = {"score_s": [], "explain_s": [], "score_confusion": []}

        argv = ["run-all", "--out-dir", d, "--n", wl.n, "--noise", wl.noise,
                "--train-fraction", wl.train_fraction, "--seed", wl.fit_seed]
        if wl.proportions is not None:
            argv += ["--proportions", json.dumps(wl.proportions)]
        code, seconds, coverage = self.op(argv, traced)
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            sample["fit_s"], sample["coverage"] = seconds, coverage
            if traced:
                sample["fit_layers"] = layer_values(self.tracer)
                # A stage whose function has gone cannot be covered.
                if not self.tracer.absent and not 0.95 <= coverage <= 1.0:
                    problems.append(f"stage spans cover {coverage:.3f} of run-all")
            problems += guarded(self.check_fit, d, first, ledger, sample)
        self.judge("run-all", problems)
        if code != 0:                               # no checkpoint to score with
            return sample
        ckpt_path = os.path.join(d, "checkpoint.json")

        for c, path in enumerate(self.eval_paths):
            out = os.path.join(d, f"heldout_metrics{c}.json")
            code, seconds, _ = self.op(["evaluate", "--data", path, "--checkpoint", ckpt_path,
                                        "--out", out], traced)
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                sample["score_s"].append(seconds)
                problems += guarded(self.check_evaluate, out, c, ledger, sample)
            self.judge(f"evaluate chunk {c}", problems)

        for c, path in enumerate(self.explain_paths):
            out = os.path.join(d, f"report{c}.json")
            code, seconds, _ = self.op(["explain", "--data", path, "--checkpoint", ckpt_path,
                                        "--out", out, "--plot-data",
                                        os.path.join(d, f"plot{c}.ndjson")], traced)
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                sample["explain_s"].append(seconds)
                problems += guarded(self.check_explain, out, path, c, d, first, ledger)
            self.judge(f"explain chunk {c}", problems)
        sample["cycle_s"] = sample["fit_s"] + sum(sample["score_s"]) + sum(sample["explain_s"])
        return sample

    # -- checks of one operation's outputs --------------------------------------

    def check_fit(self, d: str, first: bool, ledger: dict, sample: dict) -> list[str]:
        from pvashape import core, discovery, distance, model

        fit_metrics = read_json(os.path.join(d, "metrics.json"))
        sample["fit_macro_f1"] = fit_metrics["macro_f1"]
        problems = check_report(fit_metrics, count_lines(os.path.join(d, "val.ndjson")))
        if first:
            pool = discovery.load_pool(os.path.join(d, "pool.json"))
            config = model.load_checkpoint(os.path.join(d, "checkpoint.json")).config
            problems += check_self_match(pool, core.load_dataset(os.path.join(d, "train.ndjson")),
                                         config.znorm, distance.psd)
        problems += self.record_hashes(
            f"{self.wl.fit_seed}/fit", {name: os.path.join(d, name) for name in
                                        ("pool.json", "checkpoint.json", "metrics.json")}, ledger)
        return problems

    def check_evaluate(self, out: str, c: int, ledger: dict, sample: dict) -> list[str]:
        report = read_json(out)
        sample["score_confusion"].append(report["confusion"])
        return (check_report(report, self.wl.eval_chunks[1])
                + self.record_hashes(f"{self.wl.fit_seed}/score/{self.seed}/{c}",
                                     {"metrics.json": out}, ledger))

    def check_explain(self, out: str, path: str, c: int, d: str, first: bool,
                      ledger: dict) -> list[str]:
        from pvashape import core, discovery, features, model

        problems = []
        if first:
            pool = discovery.load_pool(os.path.join(d, "pool.json"))
            config = model.load_checkpoint(os.path.join(d, "checkpoint.json")).config
            problems += check_explain_matches(read_json(out), core.load_dataset(path), pool,
                                              config, features.transform_dataset)
        return problems + self.record_hashes(f"{self.wl.fit_seed}/explain/{self.seed}/{c}",
                                             {"report.json": out}, ledger)


# ---------------------------------------------------------------------------
# Correctness checks: each returns a list of problems (empty when it passes)
# ---------------------------------------------------------------------------

def guarded(check, *args) -> list[str]:
    """Run a check; a missing or malformed artifact is a problem, not a crash."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__} raised {exc!r}"]


def check_report(report: dict, n_scored: int) -> list[str]:
    out = []
    if report["recall"] != report["accuracy"]:
        out.append(f"weighted recall {report['recall']!r} != accuracy {report['accuracy']!r}")
    total = sum(sum(row) for row in report["confusion"])
    if total != n_scored:
        out.append(f"confusion total {total} != {n_scored} instances scored")
    return out


def check_self_match(pool, train, znorm: bool, psd) -> list[str]:
    """A pool shapelet matches its own source span at distance exactly 0."""
    by_id = {x.id: x for x in train}
    out = []
    for j, s in enumerate(pool.shapelets):
        x = by_id.get(s.source_id)
        if x is None:
            out.append(f"shapelet {j}: source {s.source_id} not in the training split")
            continue
        d = psd(x, s.channel, s.values, znorm=znorm).psd
        if d != 0.0:
            out.append(f"shapelet {j}: self-match distance {d!r}")
    return out


def check_explain_matches(report: dict, data, pool, config, transform_dataset) -> list[str]:
    """Every explain distance equals the transform feature of the same
    (instance, pool_index) exactly."""
    z, ids, _ = transform_dataset(data, pool, config.logsig_depth,
                                  include_shapelets=config.use_shapelet_features,
                                  znorm=config.znorm)
    row = {id_: i for i, id_ in enumerate(ids)}
    out, checked = [], 0
    for entry in report["instances"]:
        for m in entry["matches"]:
            checked += 1
            feature = float(z[row[entry["id"]], m["pool_index"]])
            if feature != m["psd"]:
                out.append(f"{entry['id']} S{m['pool_index']:03d}: explain psd {m['psd']!r} "
                           f"!= feature {feature!r}")
    if checked == 0:
        out.append("explain report has no matches to check")
    return out[:10]


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Seconds to import the CLI in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pvashape.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def load_ledger() -> dict:
    try:
        with open(os.path.join(OUT, "ledger.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def save_ledger(bench: Bench) -> None:
    ledger = load_ledger()
    for key, digests in bench.hashes.items():
        ledger.setdefault(f"{bench.ledger_key}/{key}", digests)
    path = os.path.join(OUT, "ledger.json")
    with open(f"{path}.tmp", "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(f"{path}.tmp", path)


def finite(value: float) -> float:
    """A metric that could not be measured (every attempt failed, or its
    function is absent) reads 0, which keeps the result line valid JSON;
    ``failed`` or the ``absent`` line says why."""
    return value if math.isfinite(value) else 0.0


def median_of(samples: list[dict], key: str) -> float:
    """Median over every cycle's value (or values) of ``key``."""
    values = []
    for s in samples:
        v = s.get(key)
        values.extend(v if isinstance(v, list) else [] if v is None else [v])
    return statistics.median(values) if values else float("nan")


def throughput(samples: list[dict], key: str, chunk: int) -> float:
    """Instances per second over every call of the run: total instances
    over total seconds. On a machine whose speed shifts between a few
    levels, this steadies a run more than the median call does."""
    seconds = [t for s in samples for t in s.get(key, [])]
    return chunk * len(seconds) / sum(seconds) if seconds else float("nan")


def time_left(t0: float, rounds: int, least: int, seconds: float) -> bool:
    """Whether to start another round: at least ``least`` rounds, then only
    while one more round of the mean length still ends within ``seconds``."""
    if rounds < least:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / rounds <= seconds


def end_to_end(bench: Bench) -> tuple[dict, list[dict]]:
    """Untraced cycles, with set-up repeats between them so the set-up
    median samples the whole run as the timed operations do."""
    from tracing import rss_mib

    samples, t0 = [], time.perf_counter()
    ledger = load_ledger()
    while time_left(t0, len(samples), MIN_CYCLES, bench.seconds):
        samples.append(bench.cycle(ledger))
        for _ in range(SETUP_REPEATS_PER_CYCLE):
            bench.setup_once()
    values = {
        "fit_s": median_of(samples, "fit_s"),
        "fit_macro_f1": median_of(samples, "fit_macro_f1"),
        "score_inst_per_s": throughput(samples, "score_s", bench.wl.eval_chunks[1]),
        "score_macro_f1": macro_f1([m for s in samples for m in s["score_confusion"]]),
        "explain_inst_per_s": throughput(samples, "explain_s", bench.wl.explain_chunks[1]),
        "peak_rss_mb": rss_mib(),
        "setup_s": statistics.median(bench.setup_s),
    }
    return {k: {"value": finite(v), "unit": E2E_UNITS[k]} for k, v in values.items()}, samples


def per_layer(bench: Bench) -> tuple[dict, list[dict]]:
    """Pairs of cycles, one untraced and one traced; medians over the pairs."""
    from tracing import LAYER_METRICS, absent_metrics, install, layer_values

    tracer = bench.tracer
    install(tracer)
    samples, layers, t0 = [], [], time.perf_counter()
    ledger = load_ledger()
    try:
        while time_left(t0, len(layers), 1, bench.seconds):
            plain = bench.cycle(ledger)
            tracer.reset()
            traced = bench.cycle(ledger, traced=True)
            layers.append(layer_values(tracer))
            samples += [dict(plain, traced=False), dict(traced, traced=True)]
    finally:
        tracer.uninstall()
    absent = set(absent_metrics(tracer))
    traced = [s for s in samples if s["traced"]]
    metrics = {name: {"value": float("nan") if name in absent else
                      statistics.median(l[name] for l in layers), "unit": unit}
               for name, (_, _, unit) in LAYER_METRICS.items()}
    # The fit alone: traced run-all seconds and the transform inside it, so
    # the share of each stage in the fit can be read off the medians.
    metrics["trace.fit_s"] = {"value": median_of(traced, "fit_s"), "unit": "s"}
    metrics["features.transform_dataset_fit_s"] = {
        "value": float("nan") if "features.transform_dataset_fit_s" in absent else
        median_of([{"v": s["fit_layers"]["features.transform_dataset_s"]}
                   for s in traced if "fit_layers" in s], "v"),
        "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": (median_of(traced, "cycle_s")
                  - median_of([s for s in samples if not s["traced"]], "cycle_s")),
        "unit": "s"}
    metrics["trace.stage_coverage"] = {"value": median_of(traced, "coverage"), "unit": "ratio"}
    for m in metrics.values():
        m["value"] = finite(m["value"])
    return metrics, samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "pvashape", "cli.py")):
        print(f"perfbench: no program source under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pvashape.cli
    from tracing import Tracer, absent_metrics
    if not os.path.abspath(pvashape.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported pvashape from {pvashape.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    bench = Bench(args.workload, wl, args.seed, args.seconds, work,
                  Tracer() if args.trace else None)
    for _ in range(SETUP_REPEATS):
        bench.setup_once()
    if args.trace:
        metrics, samples = per_layer(bench)
    else:
        metrics, samples = end_to_end(bench)
    save_ledger(bench)

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": asdict(wl), "env": env, "metrics": metrics,
        "attempted": bench.attempted, "failed": bench.failed,
        "failed_frac": bench.failed / max(bench.attempted, 1), "problems": bench.problems,
        "hashes": bench.hashes, "samples": samples, "setup_samples": bench.setup_s,
        "absent": {"functions": bench.tracer.absent if bench.tracer else [],
                   "metrics": absent_metrics(bench.tracer) if bench.tracer else []},
    }
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {record['failed_frac']:.6g} ({bench.failed}/{bench.attempted})")
    for problem in bench.problems:
        print(f"problem {problem}")
    for key, digests in sorted(bench.hashes.items()):
        print(f"sha256 {key} " + " ".join(f"{n}={h}" for n, h in sorted(digests.items())))
    if record["absent"]["functions"]:
        print("absent " + json.dumps(record["absent"], sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
