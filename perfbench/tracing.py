"""Per-layer tracing from outside the program.

Wrappers are installed on the module attribute each caller actually looks
up (``features.psd``, ``augment.psd`` and ``explain.psd`` are three
separate bindings of ``distance.psd``). A wrapper records nothing unless
the tracer is active, so the benchmark's own correctness checks never
show up in the per-layer figures. Spans are aggregated in memory: per
name the call count, the total time and the self time (total minus the
time of traced spans it caused).
"""
from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict

MIB = 1024.0 * 1024.0


def rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.absent: list[str] = []        # wrapped functions that were not found
        self.absent_spans: set[str] = set()
        self._stack: list[list] = []       # [start, child seconds] of open spans
        self._installed: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, seconds, child seconds)."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
        return result, duration, frame[1]

    # -- wrappers ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Replace ``module.attr`` with a traced wrapper.

        ``on_return(tracer, args, kwargs, result)`` may add counters. A
        missing attribute is recorded in ``absent`` instead of failing, so
        a later version of the program that deletes a function still runs.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            self.absent_spans.add(name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            result = tracer.span(name, original, *args, **kwargs)[0]
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        for d in (self.calls, self.total_s, self.self_s, self.counts, self.maxima):
            d.clear()


# ---------------------------------------------------------------------------
# Counters computed from arguments and results
# ---------------------------------------------------------------------------

def _count_candidates(tr, args, kwargs, result):
    tr.counts["discovery.candidates"] += len(result)


def _discover_rss(tr, args, kwargs, result):
    tr.maxima["discovery.rss_after_mb"] = max(tr.maxima["discovery.rss_after_mb"], rss_mib())


def _window_bytes(tr, args, kwargs, prep):
    nbytes = prep.m * prep.w * (prep.l + 2) * 8
    tr.maxima["distance.window_peak_mb"] = max(tr.maxima["distance.window_peak_mb"],
                                               nbytes / MIB)


def _gemm_flop(tr, args, kwargs, result):
    prep = args[0] if args else kwargs["prep"]
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    n = 1 if getattr(queries, "ndim", 2) == 1 else len(queries)
    tr.counts["distance.gemm_gflop"] += 2.0 * prep.m * prep.w * (prep.l + 2) * n / 1e9


def _augment_copies(tr, args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    tr.counts["augment.copies"] += len(result) - len(dataset)


def _epochs(tr, args, kwargs, checkpoint):
    tr.counts["model.epochs"] += len(checkpoint.history)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from pvashape import augment, cli, discovery, explain, features, model, workflow

    w = tracer.wrap
    # Discovery and its distance kernel.
    w(workflow, "discover", "discovery.discover", _discover_rss)
    w(discovery, "generate_candidates", "discovery.generate_candidates", _count_candidates)
    w(discovery, "prepare_windows", "distance.prepare_windows", _window_bytes)
    w(discovery, "prepared_min_cid", "distance.prepared_min_cid", _gemm_flop)
    # The scalar distance path, one binding per caller.
    for module in (features, augment, explain):
        w(module, "psd", "distance.psd")
    # Augmentation, features, head.
    w(workflow, "balance_dataset", "augment.balance_dataset", _augment_copies)
    w(workflow, "transform_dataset", "features.transform_dataset")
    w(features, "logsig_transform", "features.logsig_transform")
    w(workflow, "train", "model.train", _epochs)
    w(model, "forward_batch", "model.forward_batch")
    w(workflow, "forward_batch", "model.forward_batch")
    # Explain and the CLI's readers and writers.
    w(cli, "build_explain_report", "explain.build_explain_report")
    w(cli, "emit_plot_data", "explain.emit_plot_data")
    w(cli, "_write_json", "cli.write_report")
    # Not reported: its span lets the stage spans cover all of run-all.
    w(cli, "write_manifest", "cli.write_manifest")
    w(cli, "load_dataset", "core.load_dataset")
    w(cli, "save_dataset", "core.save_dataset")
    w(cli, "save_pool", "discovery.save_pool")
    w(cli, "save_features", "features.save_features")
    w(cli, "save_checkpoint", "model.save_checkpoint")
    w(cli, "generate_synthetic", "pipeline.generate_synthetic")
    w(cli, "split", "pipeline.split")


# Reported per-layer metric -> (kind, span or counter name, unit).
# "total" and "self" are span seconds, "calls" a span's call count,
# "count" and "max" the counters above.
LAYER_METRICS = {
    "discovery.discover_s": ("total", "discovery.discover", "s"),
    "discovery.generate_candidates_s": ("total", "discovery.generate_candidates", "s"),
    "distance.prepare_windows_s": ("total", "distance.prepare_windows", "s"),
    "distance.prepared_min_cid_s": ("total", "distance.prepared_min_cid", "s"),
    "discovery.discover_self_s": ("self", "discovery.discover", "s"),
    "discovery.candidates": ("count", "discovery.candidates", "count"),
    "discovery.groups": ("calls", "distance.prepare_windows", "count"),
    "distance.query_blocks": ("calls", "distance.prepared_min_cid", "count"),
    "distance.gemm_gflop": ("count", "distance.gemm_gflop", "GFLOP"),
    "distance.window_peak_mb": ("max", "distance.window_peak_mb", "MiB"),
    "discovery.rss_after_mb": ("max", "discovery.rss_after_mb", "MiB"),
    "distance.psd_calls": ("calls", "distance.psd", "count"),
    "distance.psd_s": ("total", "distance.psd", "s"),
    "features.transform_dataset_s": ("total", "features.transform_dataset", "s"),
    "features.logsig_transform_s": ("total", "features.logsig_transform", "s"),
    "augment.balance_dataset_s": ("total", "augment.balance_dataset", "s"),
    "augment.copies": ("count", "augment.copies", "count"),
    "model.train_s": ("total", "model.train", "s"),
    "model.epochs": ("count", "model.epochs", "count"),
    "model.forward_batch_s": ("total", "model.forward_batch", "s"),
    "explain.build_explain_report_s": ("total", "explain.build_explain_report", "s"),
    "explain.emit_plot_data_s": ("total", "explain.emit_plot_data", "s"),
    "cli.write_report_s": ("total", "cli.write_report", "s"),
    "core.load_dataset_s": ("total", "core.load_dataset", "s"),
    "core.save_dataset_s": ("total", "core.save_dataset", "s"),
    "discovery.save_pool_s": ("total", "discovery.save_pool", "s"),
    "features.save_features_s": ("total", "features.save_features", "s"),
    "model.save_checkpoint_s": ("total", "model.save_checkpoint", "s"),
    "pipeline.generate_synthetic_s": ("total", "pipeline.generate_synthetic", "s"),
    "pipeline.split_s": ("total", "pipeline.split", "s"),
}


# The span each counter is taken from.
COUNTER_SPANS = {
    "discovery.candidates": "discovery.generate_candidates",
    "discovery.rss_after_mb": "discovery.discover",
    "distance.window_peak_mb": "distance.prepare_windows",
    "distance.gemm_gflop": "distance.prepared_min_cid",
    "augment.copies": "augment.balance_dataset",
    "model.epochs": "model.train",
}


def absent_metrics(tracer: Tracer) -> list[str]:
    """Reported metrics with a binding that could not be wrapped: they
    read 0 and must not be compared."""
    out = [metric for metric, (_, key, _) in LAYER_METRICS.items()
           if COUNTER_SPANS.get(key, key) in tracer.absent_spans]
    if "features.transform_dataset_s" in out:
        out.append("features.transform_dataset_fit_s")   # the same span, inside run-all
    return out


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Current aggregate of every reported per-layer metric."""
    source = {"total": tracer.total_s, "self": tracer.self_s, "calls": tracer.calls,
              "count": tracer.counts, "max": tracer.maxima}
    return {metric: float(source[kind].get(key, 0.0))
            for metric, (kind, key, _) in LAYER_METRICS.items()}
