"""End-to-end fitting engine and run bookkeeping shared by the CLI, k
tuning, and tests.

A fit is: discover shapelets on the original training split, rebalance the
minority classes with shapelet-guided noise, build features (shapelet
distances and/or signed-log statistics per the ablation switches),
standardize, train the head, and score the validation split. Discovery
runs before augmentation so the pool reflects real waveforms only.
"""
from __future__ import annotations

import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .augment import balance_dataset
from .core import (Config, Dataset, STREAM_TRAIN, SeededRng, ShapeletPool,
                   ValidationError, config_hash, order_labels, write_json)
from .discovery import discover
from .features import apply_scaler, fit_scaler, transform_dataset
from .model import EvalReport, ModelCheckpoint, compute_metrics, forward_batch, train
from .pipeline import align_channels


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
    its channel subset, its log-signature depth, its thread count, and
    shapelet distances only when shapelet features are enabled, which then
    needs a pool."""
    _require_pool(pool, config)
    return transform_dataset(align_channels(dataset, config), pool, config.logsig_depth,
                             include_shapelets=config.use_shapelet_features,
                             znorm=config.znorm, threads=config.threads)


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
    index = {lab: i for i, lab in enumerate(checkpoint.classes)}
    try:
        y_true = np.array([index[lab] for lab in labels])
    except KeyError as exc:
        raise ValidationError(f"label outside the class set: {exc}") from exc
    probs = forward_batch(checkpoint.params, checkpoint.head_input(z_raw))
    return compute_metrics(y_true, np.argmax(probs, axis=1), checkpoint.classes)
