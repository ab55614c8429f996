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
    dists, offsets = match_pool(instances, pool.shapelets)
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


def _encode(part, sort_keys: bool = False) -> str:
    """``json.dumps`` text of one part of a report or plot document."""
    return json.dumps(part, sort_keys=sort_keys, allow_nan=False)


def _with_last(doc: dict, key: str, text: str) -> str:
    """Key-sorted text of ``doc`` whose member ``key``, which sorts last,
    is given already encoded as ``text``."""
    rest = _encode({k: v for k, v in doc.items() if k != key}, sort_keys=True)
    return f"{rest[:-1]}, {_encode(key)}: {text}}}"


class EncodedReport:
    """An explain report's large parts, each encoded once: every
    shapelet's values, and every instance's channels as ``"name": [...]``
    members. The report text (key-sorted, so its series objects list the
    channels by name) and the plot lines (channels in channel order) are
    both assembled from them, and each equals the ``json.dumps`` text of
    its whole document."""

    def __init__(self, report: dict):
        self.report = report
        self.values = [_encode(s["values"]) for s in report["shapelets"]]
        self.channels = [[(name, f"{_encode(name)}: {_encode(v)}")
                          for name, v in entry["series"].items()]
                         for entry in report["instances"]]

    def text(self) -> str:
        """``json.dumps(report, sort_keys=True, allow_nan=False)`` plus a
        newline."""
        r = self.report
        parts = {
            "shapelets": "[" + ", ".join(_with_last(s, "values", v)
                                         for s, v in zip(r["shapelets"], self.values)) + "]",
            "instances": "[" + ", ".join(
                _with_last(entry, "series", "{" + ", ".join(m for _, m in sorted(channels)) + "}")
                for entry, channels in zip(r["instances"], self.channels)) + "]",
        }
        members = ", ".join(f"{_encode(key)}: "
                            f"{parts[key] if key in parts else _encode(r[key], sort_keys=True)}"
                            for key in sorted(r))
        return f"{{{members}}}\n"

    def plot_lines(self):
        """One ``json.dumps`` line per instance: its series with their time
        axis, encoded once per series length, and its overlays."""
        times = {}
        for entry, channels in zip(self.report["instances"], self.channels):
            n = len(next(iter(entry["series"].values())))
            if n not in times:
                times[n] = _encode(list(range(n)))
            overlays = ", ".join(
                _encode({key: m[key] for key in _OVERLAY_KEYS})[:-1]
                + f', "values": {self.values[m["pool_index"]]}}}'
                for m in entry["matches"])
            head = _encode({key: entry[key] for key in ("id", "label", "predicted")})[:-1]
            series = ", ".join(m for _, m in channels)
            yield (f'{head}, "time": {times[n]}, "series": {{{series}}}, '
                   f'"overlays": [{overlays}]}}\n')

    def write(self, out_path) -> None:
        """Write the report text to ``out_path``."""
        with atomic_write(out_path) as fh:
            fh.write(self.text())


def emit_plot_data(report: dict, out_path, encoded: EncodedReport | None = None) -> None:
    """Write one JSON document per instance with aligned series/overlays.

    Overlay index 0 sits at the match offset on the overlay's channel;
    each overlay carries its shapelet's values from the report's table, so
    every document is directly consumable by a plotting tool. Each line is
    the ``json.dumps`` text of its document, assembled from ``encoded``,
    the report's parts encoded once (encoded here if not given).
    """
    lines = (encoded or EncodedReport(report)).plot_lines()
    try:
        with atomic_write(out_path) as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write plot data to {out_path}: {exc}") from exc
