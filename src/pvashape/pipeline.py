"""Stratified splitting, channel subsets and synthetic labeled breaths.

The pipeline starts from breaths that are already segmented and labeled;
nothing here reads a raw recording. The synthetic generator stands in for
clinical data: each class is built from its defining motif (number and
spacing of ventilator pulses on the airway-pressure channel, presence or
absence of a matching muscular effort on the chest/abdomen channels) plus
jitter and additive noise, so the classes are discriminative by
construction while remaining honest to the event definitions. Ineffective
efforts differ from normal breaths only on the effort channels, so
dropping those channels genuinely hurts that class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Config, Dataset, LabeledSeries, STREAM_SYNTH, SeededRng,
                   ValidationError, order_labels)

DEFAULT_CHANNELS = ("Pmask", "Flow", "Thor", "Abdo")

# Class frequencies of the reference corpus, used as default proportions.
REFERENCE_COUNTS = {"NP": 280110, "AC": 6385, "DT": 10595, "IE": 8040}


# ---------------------------------------------------------------------------
# Train/validation split
# ---------------------------------------------------------------------------

def split(dataset: Dataset, train_fraction: float,
          rng: SeededRng) -> tuple[Dataset, Dataset]:
    """Stratified random split keeping every class on both sides."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_idx: list[int] = []
    val_idx: list[int] = []
    for idx in shuffled_classes([x.label for x in dataset], rng, 2,
                                "instance(s); need at least 2 to stratify"):
        n_tr = int(math.floor(train_fraction * len(idx) + 0.5))
        n_tr = min(max(n_tr, 1), len(idx) - 1)
        train_idx.extend(idx[:n_tr].tolist())
        val_idx.extend(idx[n_tr:].tolist())
    return take(dataset, sorted(train_idx)), take(dataset, sorted(val_idx))


def shuffled_classes(labels: list[str], rng: SeededRng, minimum: int,
                     too_few: str) -> list[np.ndarray]:
    """Each class's indices in label order, shuffled by one permutation of
    ``rng``'s generator per class. A class with fewer than ``minimum``
    instances is refused as "class <label> has <count> <too_few>"."""
    labels_arr = np.asarray(labels)
    gen = rng.generator()
    out = []
    for lab in order_labels(labels):
        idx = np.flatnonzero(labels_arr == lab)
        if len(idx) < minimum:
            raise ValidationError(f"class {lab} has {len(idx)} {too_few}")
        out.append(idx[gen.permutation(len(idx))])
    return out


def take(dataset: Dataset, indices) -> Dataset:
    """The instances at ``indices``, in that order."""
    return Dataset(tuple(dataset.instances[i] for i in indices))


def subset_channels(dataset: Dataset, indices) -> Dataset:
    """Restrict every instance to the given channel indices, in order."""
    indices = tuple(int(i) for i in indices)
    if not indices:
        raise ValidationError("channel subset must be non-empty")
    v = dataset.n_channels
    for i in indices:
        if not 0 <= i < v:
            raise ValidationError(f"channel index {i} out of range for {v} channels")
    out = []
    for x in dataset:
        out.append(LabeledSeries(
            id=x.id, values=x.values[list(indices), :], label=x.label,
            original_length=x.original_length,
            channel_names=tuple(x.channel_names[i] for i in indices),
        ))
    return Dataset(tuple(out))


def align_channels(dataset: Dataset, config: Config) -> Dataset:
    """Apply the configured channel subset unless the data already has it.
    Every library call that takes data and a config or checkpoint applies
    it, so full-channel data gives what the CLI gives."""
    subset = config.channel_subset
    if subset is None or dataset.n_channels == len(subset):
        return dataset
    return subset_channels(dataset, subset)


# ---------------------------------------------------------------------------
# Synthetic waveform generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_instances: int
    class_proportions: dict = None
    noise: float = 0.1
    seed: int = 0
    t: int = 150

    def __post_init__(self):
        if self.n_instances <= 0:
            raise ValidationError(f"n_instances must be positive, got {self.n_instances}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValidationError(f"--noise is {self.noise}, not a finite number >= 0")
        if self.t < 30:
            raise ValidationError(f"t must be >= 30, got {self.t}")
        props = self.class_proportions or default_proportions()
        unknown = set(props) - set(REFERENCE_COUNTS)
        if unknown:
            raise ValidationError(f"unknown classes in proportions: {sorted(unknown)}")
        for lab, share in props.items():
            if not math.isfinite(share) or share < 0:
                raise ValidationError(f"--proportions share for {lab} is {share}, "
                                      "not a finite number >= 0")
        total = sum(props.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"class proportions sum to {total}, expected 1")
        object.__setattr__(self, "class_proportions", dict(props))


def default_proportions() -> dict:
    total = sum(REFERENCE_COUNTS.values())
    return {lab: c / total for lab, c in REFERENCE_COUNTS.items()}


def class_quotas(n: int, proportions: dict) -> dict:
    """Integer class counts by largest remainder; ties favor label order."""
    labels = order_labels(proportions)
    exact = {lab: n * proportions[lab] for lab in labels}
    counts = {lab: int(math.floor(exact[lab])) for lab in labels}
    short = n - sum(counts.values())
    remainders = sorted(labels, key=lambda lab: (-(exact[lab] - counts[lab]),
                                                 labels.index(lab)))
    for lab in remainders[:short]:
        counts[lab] += 1
    return counts


def _half_sine(width: int) -> np.ndarray:
    return np.sin(np.pi * (np.arange(width) + 0.5) / width)


def _add_pulse(pmask: np.ndarray, flow: np.ndarray, start: int, width: int,
               amp_p: float, amp_f: float, length: int) -> None:
    """One ventilator insufflation: pressure half-sine plus biphasic flow."""
    end = min(start + width, length)
    if end <= start:
        return
    shape = _half_sine(width)[: end - start]
    pmask[start:end] += amp_p * shape
    flow[start:end] += amp_f * shape
    exp_len = min(max(width // 2, 3), length - end)
    if exp_len > 0:
        decay = np.exp(-np.arange(exp_len) / max(width / 3.0, 1.0))
        flow[end : end + exp_len] -= 0.6 * amp_f * decay


def _add_effort(thor: np.ndarray, abdo: np.ndarray, start: int, width: int,
                amp: float, length: int) -> None:
    """In-phase chest/abdomen excursion; abdomen lags slightly."""
    end = min(start + width, length)
    if end > start:
        thor[start:end] += amp * _half_sine(width)[: end - start]
    lag = 2
    end_a = min(start + lag + width, length)
    if end_a > start + lag:
        abdo[start + lag : end_a] += 0.9 * amp * _half_sine(width)[: end_a - start - lag]


def _make_instance(label: str, gen: np.random.Generator,
                   cfg: SynthConfig) -> tuple[np.ndarray, int]:
    # Instances span the full window; the breath motif occupies a jittered
    # leading fraction and the rest is expiratory pause at baseline. Keeping
    # original_length = t means every discovered shapelet fits every
    # instance, so augmentation can never run out of usable shapelets.
    t = cfg.t
    length = t
    active = int(gen.uniform(0.72, 0.97) * t)
    amp_p = 12.0 + gen.normal(0.0, 1.0)
    amp_f = 8.0 + gen.normal(0.0, 0.8)
    amp_e = 1.5 + gen.normal(0.0, 0.15)
    t0 = int(gen.integers(3, 9))
    base_p = 5.0

    values = np.zeros((4, t))
    pmask, flow, thor, abdo = values
    if label == "NP":
        width = int(0.30 * active)
        _add_pulse(pmask, flow, t0, width, amp_p, amp_f, length)
        _add_effort(thor, abdo, t0, int(0.45 * active), amp_e, length)
    elif label == "DT":
        # Two supported breaths separated by an abnormally short gap,
        # both riding one sustained effort.
        width = int(0.22 * active)
        gap = int(0.05 * active)
        _add_pulse(pmask, flow, t0, width, amp_p, amp_f, length)
        _add_pulse(pmask, flow, t0 + width + gap, width, amp_p, amp_f, length)
        _add_effort(thor, abdo, t0, int(0.55 * active), amp_e, length)
    elif label == "AC":
        # A run of machine-triggered breaths with no matching effort.
        n_pulses = int(gen.integers(3, 5))
        width = int(0.15 * active)
        gap = int(0.04 * active)
        for p in range(n_pulses):
            _add_pulse(pmask, flow, t0 + p * (width + gap), width, amp_p, amp_f, length)
    elif label == "IE":
        # A normal supported breath plus an orphan effort during expiration
        # that the ventilator never answers: visible only on Thor/Abdo.
        width = int(0.30 * active)
        _add_pulse(pmask, flow, t0, width, amp_p, amp_f, length)
        _add_effort(thor, abdo, t0, int(0.45 * active), amp_e, length)
        orphan_amp = 1.5 + gen.normal(0.0, 0.15)
        orphan_start = t0 + int(0.55 * active)
        _add_effort(thor, abdo, orphan_start, int(0.25 * active), orphan_amp, length)
    else:
        raise ValidationError(f"no morphology defined for class {label}")

    pmask[:length] += base_p
    if cfg.noise > 0:
        values[:, :length] += gen.normal(0.0, cfg.noise, size=(4, length))
    return values, length


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Pure function of the config: per-instance seeded streams, labels by
    construction, class counts by deterministic quota."""
    quotas = class_quotas(cfg.n_instances, cfg.class_proportions)
    labels_seq: list[str] = []
    for lab in order_labels(quotas):
        labels_seq.extend([lab] * quotas[lab])
    base = SeededRng(cfg.seed).derive(STREAM_SYNTH)
    instances = []
    for i, lab in enumerate(labels_seq):
        gen = base.derive(i).generator()
        values, length = _make_instance(lab, gen, cfg)
        instances.append(LabeledSeries(id=f"syn-{i:05d}", values=values, label=lab,
                                       original_length=length,
                                       channel_names=DEFAULT_CHANNELS))
    return Dataset(tuple(instances))
