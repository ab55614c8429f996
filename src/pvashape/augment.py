"""Shapelet-guided Gaussian augmentation for minority classes.

An augmented instance is the original plus elementwise Gaussian noise
scaled by a mask: 1 away from the best-matching span of a same-class
shapelet, the match distance on that span, and 0 on the padded tail. A
close match therefore keeps the class-defining span nearly untouched
while the rest of the series is jittered.
"""
from __future__ import annotations

import logging

import numpy as np

from .core import Config, Dataset, LabeledSeries, SeededRng, Shapelet, ShapeletPool, STREAM_AUGMENT
from .distance import match_pool
from .pipeline import align_channels

log = logging.getLogger(__name__)


def _mask(x: LabeledSeries, s: Shapelet, dist: float, offset: int) -> np.ndarray:
    """Noise mask of one match: the distance on the matched span of the
    shapelet's channel, 0 on every channel's padded tail, so padding stays
    zero, and 1 elsewhere."""
    mask = np.ones_like(x.values)
    mask[s.channel, offset : offset + len(s)] = dist
    mask[:, x.original_length:] = 0.0
    return mask


def _noisy_copy(x: LabeledSeries, mask: np.ndarray, sigma_scale: float,
                gen: np.random.Generator, tag: int) -> LabeledSeries:
    """Zero-mean noise whose std is ``sigma_scale`` times each channel's
    std over the unpadded region."""
    sigma = sigma_scale * x.values[:, : x.original_length].std(axis=1)
    noise = sigma[:, None] * gen.standard_normal(x.values.shape)
    return LabeledSeries(
        id=f"{x.id}#aug{tag}",
        values=x.values + noise * mask,
        label=x.label,
        original_length=x.original_length,
        channel_names=x.channel_names,
    )


def balance_dataset(dataset: Dataset, pool: ShapeletPool, config: Config,
                    counters: dict | None = None) -> Dataset:
    """Append ``r_sa`` augmented copies of every minority-class instance.

    The majority class (`Dataset.majority`) is left untouched. Each copy
    draws from its own (instance, replica) stream, so serial and parallel
    runs produce the same dataset. Masks come from one matching-engine
    pass per minority class over that class's instances and shapelets.
    An instance that no shapelet of its class fits gets no copies, with a
    warning. ``counters``, when given, receives the ``copies`` made and the
    ``unaugmentable`` instances.
    """
    dataset = align_channels(dataset, config)
    counters = {} if counters is None else counters
    counters.update(copies=0, unaugmentable=0)
    if config.r_sa <= 0:
        return dataset

    # instance index -> (dists, offsets) against its class's shapelets
    matches = {}
    for lab in dataset.labels:
        if lab == dataset.majority:
            continue
        idx = [i for i, x in enumerate(dataset) if x.label == lab]
        dists, offsets = match_pool([dataset[i] for i in idx], pool.of_class(lab),
                                    config.znorm, config.threads)
        matches.update({i: (dists[r], offsets[r]) for r, i in enumerate(idx)})

    rng = SeededRng(config.seed).derive(STREAM_AUGMENT)
    augmented = list(dataset.instances)
    for i, x in enumerate(dataset):
        if x.label == dataset.majority:
            continue
        shapelets = pool.of_class(x.label)
        eligible = [k for k, s in enumerate(shapelets) if len(s) <= x.original_length]
        if not eligible:
            log.warning("no shapelet of class %s fits instance %s: it gets no augmented "
                        "copies", x.label, x.id)
            counters["unaugmentable"] += 1
            continue
        dists, offsets = matches[i]
        for j in range(config.r_sa):
            gen = rng.derive(i).derive(j).generator()
            k = eligible[int(gen.integers(len(eligible)))]
            mask = _mask(x, shapelets[k], dists[k], offsets[k])
            augmented.append(_noisy_copy(x, mask, config.noise_sigma_scale, gen, j))
    counters["copies"] = len(augmented) - len(dataset)
    return Dataset(tuple(augmented))
