"""End-to-end fitting engine shared by the CLI, k tuning, and tests.

A fit is: discover shapelets on the original training split, rebalance the
minority classes with shapelet-guided noise, build features (shapelet
distances and/or signed-log statistics per the ablation switches),
standardize, train the head, and score the validation split. Discovery
runs before augmentation so the pool reflects real waveforms only.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .augment import balance_dataset
from .core import (Config, Dataset, STREAM_TRAIN, SeededRng, ShapeletPool,
                   ValidationError, order_labels)
from .discovery import discover, pool_digest
from .features import apply_scaler, fit_scaler, transform_dataset
from .model import (EvalReport, ModelCheckpoint, compute_metrics, evaluate,
                    forward_batch, train)
from .pipeline import subset_channels


class _StageClock:
    """Records stage durations into a caller-owned dict; no-op if None."""

    def __init__(self, sink: dict | None):
        self.sink = sink

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.sink is not None:
                self.sink[name] = round(time.perf_counter() - start, 6)


@dataclass(frozen=True)
class FitResult:
    checkpoint: ModelCheckpoint
    pool: ShapeletPool | None
    train_full: Dataset
    report: EvalReport
    val_true: np.ndarray
    val_pred: np.ndarray
    z_train_raw: np.ndarray
    train_ids: list
    train_labels: list
    z_val_raw: np.ndarray
    val_ids: list
    val_labels: list


def fit(train_ds: Dataset, val_ds: Dataset, config: Config, *,
        classes: tuple[str, ...] | None = None,
        pool: ShapeletPool | None = None,
        pool_path: str | None = None,
        timings: dict | None = None) -> FitResult:
    """Fit every enabled stage on the training split, score the validation
    split, and return all intermediates. ``timings`` (if given) collects
    per-stage wall-clock seconds."""
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValidationError("both splits must be non-empty")
    if classes is None:
        classes = order_labels([x.label for x in train_ds] + [x.label for x in val_ds])
    clock = _StageClock(timings)

    # Augmentation needs a pool even when shapelet features are ablated.
    needs_pool = config.use_shapelet_features or config.use_augment
    if needs_pool and pool is None:
        with clock("discover"):
            pool = discover(train_ds, config)

    train_full = train_ds
    if config.use_augment and pool is not None and len(pool) > 0:
        with clock("augment"):
            train_full = balance_dataset(train_ds, pool, config)

    feature_pool = pool if config.use_shapelet_features else None
    with clock("transform"):
        z_tr_raw, train_ids, train_labels = transform_dataset(
            train_full, feature_pool, config.logsig_depth,
            include_shapelets=config.use_shapelet_features,
            znorm=config.znorm, threads=config.threads)
        z_va_raw, val_ids, val_labels = transform_dataset(
            val_ds, feature_pool, config.logsig_depth,
            include_shapelets=config.use_shapelet_features,
            znorm=config.znorm, threads=config.threads)

    scaler = fit_scaler(z_tr_raw)
    z_tr = apply_scaler(z_tr_raw, scaler)
    z_va = apply_scaler(z_va_raw, scaler)

    with clock("train"):
        checkpoint = train(z_tr, train_labels, z_va, val_labels, config,
                           SeededRng(config.seed).derive(STREAM_TRAIN),
                           classes=classes, scaler=scaler, pool_path=pool_path,
                           pool_sha256=None if pool is None else pool_digest(pool))
    index = {lab: i for i, lab in enumerate(classes)}
    val_true = np.array([index[lab] for lab in val_labels])
    with clock("evaluate"):
        val_pred = np.argmax(forward_batch(checkpoint.params, z_va), axis=1)
        report = compute_metrics(val_true, val_pred, classes)
    return FitResult(checkpoint=checkpoint, pool=pool, train_full=train_full,
                     report=report, val_true=val_true, val_pred=val_pred,
                     z_train_raw=z_tr_raw, train_ids=train_ids,
                     train_labels=train_labels, z_val_raw=z_va_raw,
                     val_ids=val_ids, val_labels=val_labels)


def fit_and_score(train_ds: Dataset, val_ds: Dataset, config: Config, *,
                  classes: tuple[str, ...] | None = None):
    """Report plus raw index predictions, for cross-validation pooling."""
    r = fit(train_ds, val_ds, config, classes=classes)
    return r.report, r.val_true, r.val_pred


def align_channels(dataset: Dataset, config: Config) -> Dataset:
    """Apply the configured channel subset unless the data already has it."""
    subset = config.channel_subset
    if subset is None or dataset.n_channels == len(subset):
        return dataset
    return subset_channels(dataset, subset)


def evaluate_on(checkpoint: ModelCheckpoint, dataset: Dataset,
                pool: ShapeletPool | None, threads: int = 1) -> EvalReport:
    """Score a dataset with a fitted checkpoint (features + scaler + head)."""
    cfg = checkpoint.config
    dataset = align_channels(dataset, cfg)
    if cfg.use_shapelet_features and pool is None:
        raise ValidationError("checkpoint expects shapelet features but no pool was given")
    z_raw, _, labels = transform_dataset(
        dataset, pool if cfg.use_shapelet_features else None, cfg.logsig_depth,
        include_shapelets=cfg.use_shapelet_features, znorm=cfg.znorm,
        threads=threads)
    return evaluate(checkpoint.params, checkpoint.head_input(z_raw), labels,
                    checkpoint.classes)
