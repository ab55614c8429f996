"""Domain types, configuration and deterministic randomness.

Everything downstream (discovery, augmentation, features, the model)
operates on the immutable types defined here. A multivariate instance is a
V x T float matrix zero-padded on the right; the true segment length is
kept in ``original_length`` so padding never leaks into any computation.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Iterable

import numpy as np

# Canonical label universe for the ventilator-asynchrony task. Arbitrary
# finite label sets are accepted everywhere; this only fixes the preferred
# ordering when these four are in play.
CANONICAL_LABELS = ("NP", "AC", "DT", "IE")

MIN_SEGMENT_LENGTH = 3


class ValidationError(ValueError):
    """Raised when input data violates a structural invariant."""


def order_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """Deterministic label ordering: canonical labels first (in canonical
    order), anything else lexicographic after them."""
    present = set(labels)
    ordered = [lab for lab in CANONICAL_LABELS if lab in present]
    ordered += sorted(present - set(CANONICAL_LABELS))
    return tuple(ordered)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledSeries:
    """One multivariate time series instance.

    values : float64 matrix of shape (V, T)
        Columns at index >= original_length are exactly zero.
    original_length : int
        Number of real samples before zero-padding; at least 3.
    """

    id: str
    values: np.ndarray
    label: str
    original_length: int
    channel_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        v, t = self.values.shape
        if len(self.channel_names) != v:
            raise ValidationError(
                f"{self.id}: {len(self.channel_names)} channel names for {v} channels"
            )
        if not MIN_SEGMENT_LENGTH <= self.original_length <= t:
            raise ValidationError(
                f"{self.id}: original_length {self.original_length} outside [3, {t}]"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError(f"{self.id}: NaN or infinite values")
        if self.original_length < t and np.any(self.values[:, self.original_length:] != 0.0):
            raise ValidationError(f"{self.id}: non-zero values in the padded tail")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def channel(self, v: int) -> np.ndarray:
        """Unpadded samples of channel ``v``."""
        return self.values[v, : self.original_length]


@dataclass(frozen=True)
class Shapelet:
    """A discriminative subsequence found by discovery.

    ``values`` is the slice ``[start, end]`` (inclusive) of channel
    ``channel`` of the source instance. ``max_train_psd`` is the largest
    finite distance observed against the training set at discovery time,
    used as the "no match possible" sentinel by the feature transform.
    Discovery makes shapelets only of the candidates it picks, then fills
    in their gain, threshold and ``max_train_psd``.
    """

    values: np.ndarray
    channel: int
    source_id: str
    start: int
    end: int
    label: str
    info_gain: float = 0.0
    split_threshold: float = 0.0
    max_train_psd: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.channel < 0:
            raise ValidationError(f"shapelet channel {self.channel} is negative")
        if self.start >= self.end:
            raise ValidationError(f"shapelet span [{self.start}, {self.end}] is degenerate")
        if len(self.values) != self.end - self.start + 1:
            raise ValidationError("shapelet values do not match its span")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ShapeletPool:
    """Class-balanced ordered collection of selected shapelets."""

    shapelets: tuple[Shapelet, ...]
    per_class_quota: int
    labels: tuple[str, ...]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "shapelets", tuple(self.shapelets))
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.shapelets)

    def of_class(self, label: str) -> list[Shapelet]:
        return [s for s in self.shapelets if s.label == label]


@dataclass(frozen=True)
class Dataset:
    """Ordered list of instances plus derived class bookkeeping.

    Every instance has the first one's (V, T) shape and channel names, so
    a channel across the dataset stacks into one matrix, and ids are
    unique.
    """

    instances: tuple[LabeledSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if not self.instances:
            return
        first = self.instances[0]
        seen: set[str] = set()
        for x in self.instances:
            if x.values.shape != first.values.shape:
                raise ValidationError(
                    f"{x.id}: shape {x.values.shape} differs from {first.id}'s "
                    f"{first.values.shape}")
            if x.channel_names != first.channel_names:
                raise ValidationError(
                    f"{x.id}: channels {list(x.channel_names)} differ from {first.id}'s "
                    f"{list(first.channel_names)}")
            if x.id in seen:
                raise ValidationError(f"duplicate instance id {x.id!r}")
            seen.add(x.id)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def __getitem__(self, i: int) -> LabeledSeries:
        return self.instances[i]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return order_labels(x.label for x in self.instances)

    @cached_property
    def class_counts(self) -> dict[str, int]:
        counts = {lab: 0 for lab in self.labels}
        for x in self.instances:
            counts[x.label] += 1
        return counts

    @cached_property
    def majority(self) -> str | None:
        """The most frequent label, first in label order on ties; None for
        an empty dataset."""
        counts = self.class_counts
        return max(counts, key=counts.get, default=None)

    @property
    def length(self) -> int:
        return self.instances[0].length if self.instances else 0

    @property
    def n_channels(self) -> int:
        return self.instances[0].n_channels if self.instances else 0


@dataclass(frozen=True)
class Config:
    """Run configuration. Defaults follow the method's reference setup;
    ``g`` is split evenly across classes (integer division)."""

    k: int = 10                     # number of perceptually important points
    g: int = 40                     # pool size, split evenly over classes
    r_sa: int = 10                  # augmented copies per minority instance
    noise_sigma_scale: float = 0.1  # noise std as a fraction of channel std
    logsig_depth: int = 2
    channel_subset: tuple[int, ...] | None = None
    seed: int = 0
    use_augment: bool = True
    use_shapelet_features: bool = True
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 10
    folds: int = 5
    # Not fields, so no config file, manifest or artifact holds them: the
    # program's own code runs on one thread and matches raw windows. The
    # one reader of ``threads`` is perfbench/run.py:environment, which
    # records it as cli_threads; that of ``znorm`` is perfbench/run.py's
    # output checks, which pass it to ``psd`` and ``transform_dataset``.
    threads = 1
    znorm = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, check = _TYPE_CHECKS[f.type]
            if not check(value):
                raise ValidationError(f"config {f.name} must be {kind}, got {value!r}")
        if self.k < 3:
            raise ValidationError(f"k must be >= 3, got {self.k}")
        if not self.learning_rate > 0:
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        for name, low in _LOWER_BOUNDS:
            if not getattr(self, name) >= low:
                raise ValidationError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.channel_subset is not None:
            object.__setattr__(self, "channel_subset", tuple(self.channel_subset))
            subset = list(self.channel_subset)
            if len(set(subset)) != len(subset):
                raise ValidationError(f"channel_subset repeats a channel: {subset}")
            # Data already holding len(subset) channels counts as subset, so
            # a reordering would be applied by synth and ignored by scoring.
            if not subset or subset != sorted(subset):
                raise ValidationError(
                    f"channel_subset must list at least one channel in increasing "
                    f"order, got {subset}")

    def with_updates(self, **kwargs) -> "Config":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        if d["channel_subset"] is not None:
            d["channel_subset"] = list(d["channel_subset"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        """Config from a JSON object. Missing keys keep their defaults;
        unknown keys and wrongly typed values are refused."""
        if not isinstance(d, dict):
            raise ValidationError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**d)


# Smallest allowed value of each bounded numeric Config field.
_LOWER_BOUNDS = (("g", 1), ("r_sa", 0), ("noise_sigma_scale", 0), ("logsig_depth", 1),
                 ("batch_size", 1), ("max_epochs", 0), ("patience", 0), ("folds", 2),
                 ("seed", 0))


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# What each Config field annotation accepts, as named in a refusal, and
# its check; integers pass as floats, but no float field takes NaN or inf.
_TYPE_CHECKS = {
    "bool": ("bool", lambda v: isinstance(v, bool)),
    "int": ("int", _is_int),
    "float": ("a finite float", lambda v: (isinstance(v, numbers.Real)
                                           and not isinstance(v, bool) and abs(v) < math.inf)),
    "tuple[int, ...] | None": ("tuple[int, ...] | None", lambda v: v is None or (
        isinstance(v, (list, tuple)) and all(_is_int(i) for i in v))),
}


def config_hash(config: Config) -> str:
    """Stable digest of a configuration, used to tag artifacts."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# Fixed stream indices so every pipeline stage draws from its own
# independent substream of the run seed.
STREAM_SYNTH = 0
STREAM_SPLIT = 1
STREAM_AUGMENT = 2
STREAM_TRAIN = 3
STREAM_TUNE = 4


@dataclass(frozen=True)
class SeededRng:
    """Deterministic, splittable random stream.

    Streams are identified by (seed, stream path); the generator for a
    stream always starts at draw 0, so results never depend on how work is
    interleaved across tasks. Derive child streams with ``derive``.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def derive(self, task_index: int) -> "SeededRng":
        return SeededRng(self.seed, self.stream + (int(task_index),))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.stream))


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

@contextmanager
def atomic_write(path):
    """Text handle whose content replaces ``path`` only once the block
    completes. Writing goes to the sibling ``<path>.tmp``; on any failure
    that file is removed and the target keeps its previous bytes."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc) -> None:
    """One key-sorted, indented JSON document. NaN and infinity are not
    JSON, so they raise instead of being written."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with atomic_write(path) as fh:
        fh.write(text + "\n")


def write_ndjson(path, records) -> None:
    """One compact JSON document per line; NaN and infinity raise."""
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(_ndjson_line(rec))


def _ndjson_line(rec) -> str:
    return json.dumps(rec, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# NDJSON dataset serialization
# ---------------------------------------------------------------------------

def series_to_record(x: LabeledSeries) -> dict:
    return {
        "id": x.id,
        "label": x.label,
        "original_length": int(x.original_length),
        "channels": list(x.channel_names),
        "values": x.values.tolist(),
    }


def series_from_record(rec: dict) -> LabeledSeries:
    if not isinstance(rec, dict):
        raise ValidationError(f"dataset record is a JSON {type(rec).__name__}, not an object")
    with refuse_malformed("dataset record"):
        return LabeledSeries(
            id=str(rec["id"]),
            values=np.asarray(rec["values"], dtype=np.float64),
            label=str(rec["label"]),
            original_length=json_integer(rec["original_length"],
                                         "dataset record original_length"),
            channel_names=tuple(rec["channels"]),
        )


def json_integer(value, what: str) -> int:
    """``value`` when it is a JSON integer; a fraction or a bool is refused
    rather than truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} is {value!r}, not an integer")
    return value


@contextmanager
def refuse_malformed(what: str):
    """Re-raise a missing field, or a value of the wrong type or shape,
    inside the block as a ValidationError about ``what``."""
    try:
        yield
    except KeyError as err:
        raise ValidationError(f"{what} missing field {err}") from err
    except ValidationError:
        raise
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{what} is malformed: {err}") from err


def read_json(path, parse):
    """``parse`` of the JSON document at ``path``. Invalid JSON, a missing
    field, or a value of the wrong type or shape raises ValidationError
    naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:       # not JSON, or not text
            raise ValidationError(f"{path}: invalid JSON: {err}") from err
    try:
        with refuse_malformed("document"):
            return parse(doc)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from err


def read_ndjson(path):
    """``(line number, record)`` for each non-blank line of an NDJSON file;
    a line that is not JSON raises ValidationError naming the file and line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as err:
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {err}") from err


def save_dataset(path, dataset: Dataset, source: tuple | None = None) -> None:
    """One record per line. ``source`` is a ``(path, dataset)`` pair
    written by ``save_dataset``: an instance that is one of its dataset's
    instances (the same object) is copied from its line, not encoded
    again."""
    lines = {}
    if source is not None:
        with open(source[0]) as fh:
            lines = {id(x): line for x, line in zip(source[1], fh)}
    with atomic_write(path) as fh:
        for x in dataset:
            fh.write(lines.get(id(x)) or _ndjson_line(series_to_record(x)))


def load_dataset(path) -> Dataset:
    instances = []
    for lineno, rec in read_ndjson(path):
        try:
            instances.append(series_from_record(rec))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from err
    if not instances:
        raise ValidationError(f"{path}: the dataset holds no instances")
    return Dataset(tuple(instances))
