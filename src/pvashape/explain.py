"""Interpretability: per-instance shapelet match evidence.

For each instance the report lists, per shapelet of the predicted class
(or of every class on request), where the shapelet matched best and how
far the match is. Each shapelet's values appear once, in the report's
``shapelets`` table, and each instance's unpadded series once, so a
matched window is ``series[channel_name][offset : offset + length]`` and
the evidence behind a prediction can be plotted or audited directly.
"""
from __future__ import annotations

import json

import numpy as np

from .core import Dataset, ValidationError, atomic_write
from .discovery import pool_digest
from .distance import match_pool
from .features import feature_matrix
from .model import ModelCheckpoint, forward_batch
from .pipeline import align_channels


def build_explain_report(dataset: Dataset, checkpoint: ModelCheckpoint,
                         all_classes: bool = False,
                         instance_id: str | None = None) -> dict:
    """Prediction plus best-match evidence for each requested instance.

    Shapelets longer than an instance's unpadded region cannot match and
    are omitted from that instance's entries. Features and evidence come
    from one pass of the matching engine the feature transform uses, so
    every reported distance equals its feature exactly, and one head pass
    scores every row, as ``evaluate`` scores a file. The pool's values and
    the unpadded waveforms ride along so the report is self-contained for
    plotting; ``pool_sha256`` names the checkpoint's pool they came from.
    """
    cfg, pool = checkpoint.config, checkpoint.pool
    if pool is None:
        raise ValidationError("explain needs a shapelet pool, and the checkpoint was "
                              "trained without one")
    instances = list(align_channels(dataset, cfg))
    if instance_id is not None:
        instances = [x for x in instances if x.id == instance_id]
        if not instances:
            raise ValidationError(f"instance {instance_id!r} not found")
    dists, offsets = match_pool(instances, pool.shapelets, cfg.znorm, cfg.threads)
    z = feature_matrix(instances, pool if cfg.use_shapelet_features else None,
                       cfg.logsig_depth, (dists, offsets))
    probs = forward_batch(checkpoint.params, checkpoint.head_input(z))
    out = []
    for r, x in enumerate(instances):
        predicted = checkpoint.classes[int(np.argmax(probs[r]))]
        matches = []
        for j, s in enumerate(pool.shapelets):
            if (not all_classes and s.label != predicted) or offsets[r, j] < 0:
                continue
            matches.append({
                "shapelet": f"S{j:03d}",
                "pool_index": j,
                "label": s.label,
                "channel": int(s.channel),
                "channel_name": x.channel_names[s.channel],
                "offset": int(offsets[r, j]),
                "psd": float(dists[r, j]),
            })
        out.append({
            "id": x.id,
            "label": x.label,
            "predicted": predicted,
            "probabilities": dict(zip(checkpoint.classes, probs[r].tolist())),
            "series": {name: x.channel(i).tolist()
                       for i, name in enumerate(x.channel_names)},
            "matches": matches,
        })
    shapelets = [{"label": s.label, "channel": int(s.channel), "length": len(s),
                  "values": s.values.tolist()} for s in pool.shapelets]
    return {"classes": list(checkpoint.classes), "all_classes": bool(all_classes),
            "pool_sha256": pool_digest(pool), "shapelets": shapelets, "instances": out}


# An overlay's fields in a plot document, before its shapelet's values.
_OVERLAY_KEYS = ("shapelet", "label", "channel", "channel_name", "offset", "psd")


def _encode(part) -> str:
    """``json.dumps`` text of one part of a plot document."""
    return json.dumps(part, allow_nan=False)


def emit_plot_data(report: dict, out_path) -> None:
    """Write one JSON document per instance with aligned series/overlays.

    Overlay index 0 sits at the match offset on the overlay's channel;
    each overlay carries its shapelet's values from the report's table, so
    every document is directly consumable by a plotting tool. Each line is
    the ``json.dumps`` text of its document, assembled from parts encoded
    once per call: every shapelet's values, and each instance's series.
    """
    values = [_encode(s["values"]) for s in report["shapelets"]]

    def lines():
        for entry in report["instances"]:
            time = list(range(len(next(iter(entry["series"].values())))))
            overlays = ", ".join(
                _encode({key: m[key] for key in _OVERLAY_KEYS})[:-1]
                + f', "values": {values[m["pool_index"]]}}}'
                for m in entry["matches"])
            head = _encode({key: entry[key] for key in ("id", "label", "predicted")})[:-1]
            yield (f'{head}, "time": {_encode(time)}, "series": {_encode(entry["series"])}, '
                   f'"overlays": [{overlays}]}}\n')

    try:
        with atomic_write(out_path) as fh:
            fh.writelines(lines())
    except OSError as exc:
        raise OSError(f"cannot write plot data to {out_path}: {exc}") from exc
