"""Shapelet pipeline for patient-ventilator asynchrony classification.

Multivariate breath segments are matched against class-discriminative
subsequences (shapelets) found at perceptually important points; minority
classes are rebalanced with shapelet-guided noise; shapelet distances plus
signed-log statistics feed a small softmax head.
"""

__version__ = "0.1.0"

from .core import (CANONICAL_LABELS, Config, Dataset, LabeledSeries, SeededRng,
                   Shapelet, ShapeletPool, ValidationError, load_dataset,
                   save_dataset)
from .distance import MatchResult, ShapeletLengthError, psd
from .discovery import discover, load_pool, save_pool
from .augment import balance_dataset
from .features import (FeatureScaler, apply_scaler, fit_scaler,
                       logsig_transform, transform_dataset)
from .model import (EvalReport, HeadParams, ModelCheckpoint,
                    TrainingDivergedError, compute_metrics,
                    load_checkpoint, save_checkpoint, train)
from .pipeline import SynthConfig, generate_synthetic, split, subset_channels
from .workflow import fit, k_grid, tune_k
from .explain import build_explain_report, emit_plot_data

__all__ = [
    "CANONICAL_LABELS", "Config", "Dataset", "LabeledSeries", "SeededRng",
    "Shapelet", "ShapeletPool", "ValidationError", "load_dataset",
    "save_dataset", "MatchResult", "ShapeletLengthError", "psd", "discover",
    "load_pool", "save_pool", "balance_dataset", "FeatureScaler",
    "apply_scaler", "fit_scaler", "logsig_transform", "transform_dataset",
    "EvalReport", "HeadParams", "ModelCheckpoint",
    "TrainingDivergedError", "compute_metrics", "k_grid",
    "load_checkpoint", "save_checkpoint", "train", "tune_k",
    "SynthConfig", "generate_synthetic", "split", "subset_channels", "fit",
    "build_explain_report", "emit_plot_data",
]
