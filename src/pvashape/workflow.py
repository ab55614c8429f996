"""End-to-end fitting engine, the k-grid search over it, and run
bookkeeping shared by the CLI and tests.

A fit is: discover shapelets on the original training split, rebalance the
minority classes with shapelet-guided noise, build features (shapelet
distances and/or signed-log statistics per the ablation switches),
standardize, train the head, and score the validation split. Discovery
runs before augmentation so the pool reflects real waveforms only.
"""
from __future__ import annotations

import math
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .augment import balance_dataset
from .core import (Config, Dataset, STREAM_TRAIN, STREAM_TUNE, SeededRng, ShapeletPool,
                   ValidationError, config_hash, order_labels, write_json)
from .discovery import discover
from .features import apply_scaler, fit_scaler, transform_dataset
from .model import (EvalReport, ModelCheckpoint, compute_metrics, confusion_metrics,
                    forward_batch, label_codes, train)
from .pipeline import align_channels, shuffled_classes, take


class Run:
    """The record of one command: its config, input and output paths, the
    wall-clock seconds of each stage it ran, the process's peak memory at
    each stage's end and the counts some stages report. Its manifest is the
    only place these are kept, so result artifacts stay byte-reproducible."""

    def __init__(self, command: str, config: Config, inputs: dict | None = None,
                 outputs: dict | None = None):
        self.command = command
        self.config = config
        self.inputs = dict(inputs or {})
        self.outputs = dict(outputs or {})
        self.timings: dict[str, float] = {}
        self.stage_peak_rss: dict[str, float] = {}
        self.counters: dict[str, dict] = {}

    @contextmanager
    def stage(self, name: str):
        """Time the block as stage ``name``. It is given a dict for the
        stage's counters, kept under ``counters[name]`` if the stage sets
        any."""
        counters = {}
        start = time.perf_counter()
        try:
            yield counters
        finally:
            self.timings[name] = round(time.perf_counter() - start, 6)
            self.stage_peak_rss[name] = peak_rss_mib()
            if counters:
                self.counters[name] = counters


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def write_manifest(path, run: Run) -> None:
    """The run's config snapshot and hash, paths, stage timings, peak
    memory at each stage's end, stage counters (when a stage reported
    any), peak memory and versions."""
    cfg = run.config
    counters = {"counters": run.counters} if run.counters else {}
    write_json(path, {
        "command": run.command,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "inputs": {k: str(v) for k, v in run.inputs.items()},
        "outputs": {k: str(v) for k, v in run.outputs.items()},
        "timings_s": run.timings,
        "stage_peak_rss_mib": run.stage_peak_rss,
        **counters,
        "peak_rss_mib": peak_rss_mib(),
        "versions": {"pvashape": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
    })


@dataclass(frozen=True)
class FitResult:
    checkpoint: ModelCheckpoint     # carries the pool, if the fit had one
    train_full: Dataset             # the training split after augmentation
    report: EvalReport              # validation metrics
    train_features: tuple           # raw (z, ids, labels) of train_full
    val_features: tuple             # raw (z, ids, labels) of the validation split


def fit(train_ds: Dataset, val_ds: Dataset, config: Config, *,
        classes: tuple[str, ...] | None = None,
        pool: ShapeletPool | None = None,
        run: Run | None = None) -> FitResult:
    """Fit every enabled stage on the training split, score the validation
    split, and return what the CLI saves. ``run`` (if given) is a Run of
    ``config``; it records the seconds of each stage and the counters of
    discovery, augmentation and training."""
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValidationError("both splits must be non-empty")
    if classes is None:
        classes = order_labels([x.label for x in train_ds] + [x.label for x in val_ds])
    train_ds, val_ds = align_channels(train_ds, config), align_channels(val_ds, config)
    run = run or Run("fit", config)
    if run.config != config:
        raise ValueError("the run records another config than the fit's")

    # Augmentation needs a pool even when shapelet features are ablated.
    if (config.use_shapelet_features or config.use_augment) and pool is None:
        pool = discover_stage(run, train_ds)
    train_full = train_ds
    if config.use_augment and pool is not None and len(pool) > 0:
        train_full = augment_stage(run, train_ds, pool)
    train_features, val_features = transform_stage(run, pool, train_full, val_ds)
    checkpoint = train_stage(run, train_features, val_features, classes=classes, pool=pool)
    with run.stage("evaluate"):
        report = score_features(checkpoint, val_features[0], val_features[2])
    return FitResult(checkpoint=checkpoint, train_full=train_full,
                     report=report, train_features=train_features,
                     val_features=val_features)


# The k-grid search: each fold of each grid member is one `fit`.

def k_grid(t: int) -> list[int]:
    """Ten evenly spaced candidate k values from 3 to floor(0.1 * t),
    rounded half-up and deduplicated preserving order."""
    if t < 30:
        raise ValidationError(f"series length {t} too short for a k grid (need >= 30)")
    hi = math.floor(0.1 * t)
    grid: list[int] = []
    for x in np.linspace(3.0, float(hi), 10):
        k = int(math.floor(x + 0.5))
        if k not in grid:
            grid.append(k)
    return grid


@dataclass(frozen=True)
class TuneResult:
    best_k: int
    scores: dict            # k -> mean validation macro-F1
    reports: dict           # k -> EvalReport over pooled fold predictions

    def to_dict(self) -> dict:
        return {"best_k": self.best_k,
                "scores": {str(k): v for k, v in self.scores.items()},
                "reports": {str(k): r.to_dict() for k, r in self.reports.items()}}


def stratified_folds(labels: list[str], folds: int, rng: SeededRng) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; fold f holds every class's
    f-th shuffled slice. Errors out if any class cannot reach every fold."""
    by_class = shuffled_classes(labels, rng, folds, f"instances, fewer than {folds} folds")
    return [np.sort(np.concatenate([idx[f::folds] for idx in by_class]))
            for f in range(folds)]


def tune_k(dataset: Dataset, config: Config, counters: dict | None = None) -> TuneResult:
    """Cross-validated search over the k grid.

    Stratified ``config.folds``-fold; folds equal to the dataset size give
    true leave-one-out validation, scored by the macro-F1 of the pooled
    predictions. Best k is the smallest grid member achieving the highest
    mean validation macro-F1. Each fit runs on a `Run` of its own config;
    ``counters["fits"]`` (if ``counters`` is given) lists their counters in
    run order, each entry with its ``k`` and ``fold``.
    """
    folds, n = config.folds, len(dataset)
    if folds > n:
        raise ValidationError(f"{folds} folds but only {n} instances")
    loocv = folds == n
    if loocv:
        fold_idx = [np.array([i]) for i in range(n)]
    else:
        fold_idx = stratified_folds([x.label for x in dataset], folds,
                                    SeededRng(config.seed).derive(STREAM_TUNE))
    fold_sets = [(take(dataset, np.setdiff1d(np.arange(n), val_idx)), take(dataset, val_idx))
                 for val_idx in fold_idx]

    classes = dataset.labels
    grid = k_grid(dataset.length)
    scores: dict[int, float] = {}
    reports: dict[int, EvalReport] = {}
    fits = []
    for k in grid:
        cfg_k = config.with_updates(k=k)
        fold_reports = []
        for fold, (train_ds, val_ds) in enumerate(fold_sets):
            run = Run("fit", cfg_k)
            fold_reports.append(fit(train_ds, val_ds, cfg_k, classes=classes, run=run).report)
            fits.append({"k": k, "fold": fold, **run.counters})
        pooled = confusion_metrics(sum(r.confusion for r in fold_reports), classes)
        scores[k] = (pooled.macro_f1 if loocv
                     else float(np.mean([r.macro_f1 for r in fold_reports])))
        reports[k] = pooled
    # max keeps the first of equal scores, and the grid ascends
    best_k = max(grid, key=scores.__getitem__)
    if counters is not None:
        counters["fits"] = fits
    return TuneResult(best_k=best_k, scores=scores, reports=reports)


# The fit stages. Each runs on ``run.config``, times itself on ``run`` as
# the stage of its name, keeps that stage's counters there and returns the
# stage's result; `fit` and the CLI's subcommands call the same ones.

def discover_stage(run: Run, dataset: Dataset) -> ShapeletPool:
    """The shapelet pool of a training set."""
    with run.stage("discover") as counters:
        return discover(dataset, run.config, counters=counters)


def augment_stage(run: Run, dataset: Dataset, pool: ShapeletPool) -> Dataset:
    """A training set with its minority classes rebalanced."""
    with run.stage("augment") as counters:
        return balance_dataset(dataset, pool, run.config, counters=counters)


def transform_stage(run: Run, pool: ShapeletPool | None, *datasets: Dataset) -> list:
    """The raw (features, ids, labels) of each dataset, by `featurize`."""
    with run.stage("transform"):
        return [featurize(ds, pool, run.config) for ds in datasets]


def train_stage(run: Run, train_features: tuple, val_features: tuple, *,
                classes: tuple[str, ...] | None = None,
                pool: ShapeletPool | None = None) -> ModelCheckpoint:
    """Standardize on the training features and train the head; the
    checkpoint keeps the scaler and the pool, which shapelet features need.
    Counts the epochs run."""
    config = run.config
    _require_pool(pool, config)
    (z_tr, _, labels_tr), (z_va, _, labels_va) = train_features, val_features
    with run.stage("train") as counters:
        scaler = fit_scaler(z_tr)
        checkpoint = train(apply_scaler(z_tr, scaler), labels_tr, apply_scaler(z_va, scaler),
                           labels_va, config, SeededRng(config.seed).derive(STREAM_TRAIN),
                           classes=classes, scaler=scaler, pool=pool)
        counters["epochs"] = len(checkpoint.history)
    return checkpoint


def featurize(dataset: Dataset, pool: ShapeletPool | None,
              config: Config) -> tuple[np.ndarray, list, list]:
    """Raw (features, ids, labels) of a dataset as ``config`` defines them:
    its channel subset, its log-signature depth, and shapelet distances
    only when shapelet features are enabled, which then needs a pool."""
    _require_pool(pool, config)
    return transform_dataset(align_channels(dataset, config), pool, config.logsig_depth,
                             include_shapelets=config.use_shapelet_features)


def _require_pool(pool: ShapeletPool | None, config: Config) -> None:
    if config.use_shapelet_features and pool is None:
        raise ValidationError("shapelet features are enabled but no shapelet pool was "
                              "given (pass --pool, or --no-shapelet-features)")


def evaluate_on(checkpoint: ModelCheckpoint, dataset: Dataset) -> EvalReport:
    """Score a dataset with a fitted checkpoint (its pool's features, its
    scaler and its head)."""
    z_raw, _, labels = featurize(dataset, checkpoint.pool, checkpoint.config)
    return score_features(checkpoint, z_raw, labels)


def score_features(checkpoint: ModelCheckpoint, z_raw: np.ndarray,
                   labels: list[str]) -> EvalReport:
    """Argmax predictions of the checkpoint's head on raw features, scored
    per class; a label outside the checkpoint's classes is refused."""
    y_true = label_codes(labels, checkpoint.classes)
    probs = forward_batch(checkpoint.params, checkpoint.head_input(z_raw))
    return compute_metrics(y_true, np.argmax(probs, axis=1), checkpoint.classes)
