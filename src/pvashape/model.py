"""Classification head, training loop and metrics.

The head maps a feature vector through d -> 512 -> 256 -> |Y| with ReLU
between the linear layers and a softmax output. Without the nonlinearities
the three maps would collapse into one and the stated widths would be
meaningless, so ReLU is inserted deliberately. Training is minibatch
adaptive-moment gradient descent on mean cross-entropy with early stopping
on validation macro-F1.

Overall precision/recall/F1 are support-weighted; weighted recall is then
identical to accuracy (the trace of the confusion matrix over its total),
which doubles as a metrics self-test. Macro-F1 is reported alongside.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .core import (Config, SeededRng, ShapeletPool, ValidationError, config_hash,
                   order_labels, read_json, write_json)
from .discovery import pool_from_dict, pool_to_dict
from .features import FeatureScaler, apply_scaler

HIDDEN_1 = 512
HIDDEN_2 = 256
PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class HeadParams:
    """Weights and biases of the three linear layers."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        for name in PARAM_NAMES:
            a = getattr(self, name)
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"non-finite entries in {name}")
        # Every shape, biases too: a (1,) bias would broadcast silently.
        d = self.w1.shape[0] if self.w1.ndim == 2 else -1
        c = self.w3.shape[1] if self.w3.ndim == 2 else -1
        for name, shape in (("w1", (d, HIDDEN_1)), ("b1", (HIDDEN_1,)),
                            ("w2", (HIDDEN_1, HIDDEN_2)), ("b2", (HIDDEN_2,)),
                            ("w3", (HIDDEN_2, c)), ("b3", (c,))):
            if getattr(self, name).shape != shape:
                raise ValidationError(
                    f"{name} has shape {getattr(self, name).shape}; the head is "
                    "d x 512 -> 512 x 256 -> 256 x classes with matching biases")

    @property
    def d(self) -> int:
        return self.w1.shape[0]

    def to_dict(self) -> dict:
        return {name: _encode_param(getattr(self, name)) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "HeadParams":
        if not isinstance(d, dict):
            raise ValidationError(f"checkpoint weights are not an object; {_REWRITE}")
        return cls(**{name: _decode_param(name, d.get(name)) for name in PARAM_NAMES})


_REWRITE = "rewrite the checkpoint with `train` or `run-all`"


def _encode_param(a: np.ndarray) -> dict:
    """A parameter as its shape and the base64 of its little-endian float64
    bytes: exact, and far quicker to write and to parse than one decimal
    per weight."""
    return {"shape": list(a.shape),
            "float64_le": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def _decode_param(name: str, rec) -> np.ndarray:
    """``_encode_param``'s record back as an owned, writable float64 array.
    Any other form, and a payload of the wrong size, is refused."""
    try:
        shape, payload = rec["shape"], rec["float64_le"]
        if not (isinstance(shape, list)
                and all(type(s) is int and s >= 0 for s in shape)):
            raise TypeError(shape)
        raw = base64.b64decode(payload, validate=True)
    except (KeyError, TypeError, ValueError):
        raise ValidationError(
            f"checkpoint weight {name} is not a {{shape, float64_le}} record; "
            f"{_REWRITE}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValidationError(
            f"checkpoint weight {name} holds {len(raw)} bytes, not 8 x {shape}; {_REWRITE}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def init_params(d: int, n_classes: int, rng: SeededRng) -> HeadParams:
    """Scaled-uniform fan-in initialization; biases start at zero."""
    gen = rng.generator()

    def uniform(fan_in: int, shape: tuple[int, int]) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return gen.uniform(-bound, bound, size=shape)

    return HeadParams(
        w1=uniform(d, (d, HIDDEN_1)), b1=np.zeros(HIDDEN_1),
        w2=uniform(HIDDEN_1, (HIDDEN_1, HIDDEN_2)), b2=np.zeros(HIDDEN_2),
        w3=uniform(HIDDEN_2, (HIDDEN_2, n_classes)), b3=np.zeros(n_classes),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_cache(params, z: np.ndarray):
    """Batch forward pass keeping pre-activations for backprop.

    ``params`` may be a HeadParams or a plain {name: array} dict (the
    mutable form used inside the optimizer loop).
    """
    get = params.__getitem__ if isinstance(params, dict) else lambda n: getattr(params, n)
    l1 = z @ get("w1") + get("b1")
    a1 = np.maximum(l1, 0.0)
    l2 = a1 @ get("w2") + get("b2")
    a2 = np.maximum(l2, 0.0)
    l3 = a2 @ get("w3") + get("b3")
    probs = _softmax(l3)
    return probs, (z, l1, a1, l2, a2, get)


def forward_batch(params, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValidationError("non-finite feature input")
    probs, _ = _forward_cache(params, z)
    return probs


def batch_loss(probs: np.ndarray, y: np.ndarray) -> float:
    picked = np.maximum(probs[np.arange(len(y)), y], PROB_FLOOR)
    return float(-np.log(picked).mean())


def _backward(probs: np.ndarray, cache, y: np.ndarray) -> dict:
    a0, l1, a1, l2, a2, get = cache
    b = len(y)
    dl3 = probs.copy()
    dl3[np.arange(b), y] -= 1.0
    dl3 /= b
    da2 = dl3 @ get("w3").T
    dl2 = da2 * (l2 > 0.0)
    da1 = dl2 @ get("w2").T
    dl1 = da1 * (l1 > 0.0)
    return {
        "w3": a2.T @ dl3, "b3": dl3.sum(axis=0),
        "w2": a1.T @ dl2, "b2": dl2.sum(axis=0),
        "w1": a0.T @ dl1, "b1": dl1.sum(axis=0),
    }


def gradients(params, z: np.ndarray, y: np.ndarray) -> dict:
    """Analytic gradients of mean cross-entropy over the batch."""
    z = np.asarray(z, dtype=np.float64)
    probs, cache = _forward_cache(params, z)
    return _backward(probs, cache, y)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelCheckpoint:
    """Everything needed to score new data and reproduce the training run:
    the head, its scaler, and the shapelet pool it was fitted with (None
    only for a head trained without one)."""

    params: HeadParams
    classes: tuple[str, ...]
    scaler: FeatureScaler | None
    config: Config
    pool: ShapeletPool | None
    history: tuple[dict, ...]
    best_epoch: int
    best_val_macro_f1: float

    def to_dict(self) -> dict:
        return {
            "weights": self.params.to_dict(),
            "classes": list(self.classes),
            "scaler": self.scaler.to_dict() if self.scaler is not None else None,
            "config": self.config.to_dict(),
            "config_hash": config_hash(self.config),
            "pool": pool_to_dict(self.pool) if self.pool is not None else None,
            "history": list(self.history),
            "best_epoch": self.best_epoch,
            "best_val_macro_f1": self.best_val_macro_f1,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelCheckpoint":
        """A checkpoint from its JSON object. A field that is missing or
        wrongly typed, a scaler or class list that does not fit the
        head's weights, and a malformed pool or a missing one that the
        config's shapelet features need, are refused."""
        missing = [k for k in ("weights", "classes", "config")
                   if not isinstance(d, dict) or k not in d]
        if missing:
            raise ValidationError(f"checkpoint lacks {', '.join(missing)}; {_REWRITE}")
        params = HeadParams.from_dict(d["weights"])
        classes, n_out = d["classes"], params.w3.shape[1]
        if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)
                and len(set(classes)) == len(classes) == n_out):
            raise ValidationError(f"checkpoint classes are not {n_out} distinct strings, "
                                  f"one per output of the head; {_REWRITE}")
        scaler = None if d.get("scaler") is None else FeatureScaler.from_dict(d["scaler"])
        if scaler is not None and len(scaler.mean) != params.d:
            raise ValidationError(f"checkpoint scaler covers {len(scaler.mean)} features, "
                                  f"but the head takes {params.d}; {_REWRITE}")
        pool = None if d.get("pool") is None else pool_from_dict(d["pool"])
        try:
            config = Config.from_dict(d["config"])
        except ValidationError as exc:
            raise ValidationError(f"{exc}; {_REWRITE}") from None
        if pool is None and config.use_shapelet_features:
            raise ValidationError(f"checkpoint uses shapelet features but holds no pool; "
                                  f"{_REWRITE}")
        if not isinstance(d.get("history", []), list):
            raise ValidationError("checkpoint history is not a list")
        return cls(
            params=params,
            classes=tuple(classes),
            scaler=scaler,
            config=config,
            pool=pool,
            history=tuple(d.get("history", [])),
            best_epoch=int(d.get("best_epoch", 0)),
            best_val_macro_f1=float(d.get("best_val_macro_f1", 0.0)),
        )

    def head_input(self, z_raw: np.ndarray) -> np.ndarray:
        """Raw feature matrix -> the head's input, scaled as in training.

        A matrix of another width (features of a different pool or
        channel set) is refused instead of failing inside numpy.
        """
        if z_raw.shape[1] != self.params.d:
            raise ValidationError(
                f"{z_raw.shape[1]} features per instance, but the checkpoint's head "
                f"takes {self.params.d}: not the pool or channels it was trained with")
        return apply_scaler(z_raw, self.scaler) if self.scaler else z_raw


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    write_json(path, ckpt.to_dict())


def load_checkpoint(path) -> ModelCheckpoint:
    return read_json(path, ModelCheckpoint.from_dict)


def _adam_step(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float) -> None:
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name in PARAM_NAMES:
        g = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
        params[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


def label_codes(labels, classes: tuple[str, ...]) -> np.ndarray:
    """Each label's index in ``classes``; a label outside them is refused."""
    index = {lab: i for i, lab in enumerate(classes)}
    try:
        return np.array([index[lab] for lab in labels])
    except KeyError as exc:
        raise ValidationError(f"label outside the class set: {exc}") from exc


def train(train_z: np.ndarray, train_labels: list[str],
          val_z: np.ndarray, val_labels: list[str],
          config: Config, rng: SeededRng, *,
          classes: tuple[str, ...] | None = None,
          scaler: FeatureScaler | None = None,
          pool: ShapeletPool | None = None) -> ModelCheckpoint:
    """Fit the head on (already standardized) features.

    Stops early when validation macro-F1 has not improved for
    ``config.patience`` epochs and returns the best-validation parameters.
    """
    train_z = np.asarray(train_z, dtype=np.float64)
    val_z = np.asarray(val_z, dtype=np.float64)
    if train_z.ndim != 2 or len(train_z) == 0 or len(val_z) == 0:
        raise ValidationError("both splits must be non-empty feature matrices")
    if train_z.shape[1] != val_z.shape[1]:
        raise ValidationError("train and validation feature dimensions differ")
    if classes is None:
        classes = order_labels(train_labels)
    y_tr, y_va = label_codes(train_labels, classes), label_codes(val_labels, classes)

    init = init_params(train_z.shape[1], len(classes), rng.derive(0))
    params = {name: getattr(init, name).copy() for name in PARAM_NAMES}
    shuffle_gen = rng.derive(1).generator()
    m = {name: np.zeros_like(params[name]) for name in PARAM_NAMES}
    v = {name: np.zeros_like(params[name]) for name in PARAM_NAMES}

    best = {name: params[name].copy() for name in PARAM_NAMES}
    best_f1 = -1.0
    best_epoch = 0
    stale = 0
    t = 0
    history: list[dict] = []
    n = len(train_z)
    for epoch in range(1, config.max_epochs + 1):
        perm = shuffle_gen.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            zb, yb = train_z[idx], y_tr[idx]
            probs, cache = _forward_cache(params, zb)
            batch = batch_loss(probs, yb)
            if not math.isfinite(batch):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}; "
                    "lower the learning rate or check the features for blowups"
                )
            loss_sum += batch * len(yb)
            grads = _backward(probs, cache, yb)
            t += 1
            _adam_step(params, grads, m, v, t, config.learning_rate)
        val_pred = np.argmax(forward_batch(params, val_z), axis=1)
        val_f1 = compute_metrics(y_va, val_pred, classes).macro_f1
        history.append({"epoch": epoch, "train_loss": loss_sum / n,
                        "val_macro_f1": val_f1})
        if val_f1 > best_f1:
            best_f1 = val_f1
            best = {name: params[name].copy() for name in PARAM_NAMES}
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    final = HeadParams(**{name: best[name] for name in PARAM_NAMES})
    return ModelCheckpoint(params=final, classes=classes, scaler=scaler,
                           config=config, pool=pool,
                           history=tuple(history), best_epoch=best_epoch,
                           best_val_macro_f1=max(best_f1, 0.0))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    classes: tuple[str, ...]
    confusion: np.ndarray
    per_class_precision: dict
    per_class_recall: dict
    per_class_f1: dict
    support: dict
    precision: float
    recall: float
    f1: float
    macro_f1: float
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "confusion": [[int(c) for c in row] for row in self.confusion],
            "per_class_precision": dict(self.per_class_precision),
            "per_class_recall": dict(self.per_class_recall),
            "per_class_f1": dict(self.per_class_f1),
            "support": {k: int(v) for k, v in self.support.items()},
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
        }


def compute_metrics(y_true: np.ndarray, y_pred: np.ndarray,
                    classes: tuple[str, ...]) -> EvalReport:
    """Confusion-matrix metrics; zero-denominator cases score 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValidationError("prediction/label length mismatch")
    c = len(classes)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    return confusion_metrics(confusion, classes)


def confusion_metrics(confusion: np.ndarray, classes: tuple[str, ...]) -> EvalReport:
    """Metrics of a (true x predicted) count matrix. Counts add, so the
    sum of per-fold matrices scores the pooled predictions exactly."""
    c = len(classes)
    total = confusion.sum()
    diag = np.diag(confusion).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)   # support per true class
    col = confusion.sum(axis=0).astype(np.float64)   # predictions per class
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(col > 0, diag / col, 0.0)
        rec = np.where(row > 0, diag / row, 0.0)
        denom = prec + rec
        f1 = np.where(denom > 0, 2.0 * prec * rec / np.where(denom > 0, denom, 1.0), 0.0)
    weights = row / total if total else np.zeros(c)
    # Support weights cancel for recall: sum_c (n_c/N)(tp_c/n_c) = sum_c tp_c / N,
    # so the weighted recall is evaluated in that form and equals accuracy
    # exactly, not merely to rounding.
    accuracy = float(diag.sum() / total) if total else 0.0
    return EvalReport(
        classes=classes,
        confusion=confusion,
        per_class_precision={lab: float(p) for lab, p in zip(classes, prec)},
        per_class_recall={lab: float(r) for lab, r in zip(classes, rec)},
        per_class_f1={lab: float(v) for lab, v in zip(classes, f1)},
        support={lab: int(s) for lab, s in zip(classes, row)},
        precision=float(np.dot(weights, prec)),
        recall=accuracy,
        f1=float(np.dot(weights, f1)),
        macro_f1=float(f1.mean()) if c else 0.0,
        accuracy=accuracy,
    )
