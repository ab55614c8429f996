"""Command-line orchestration of the pipeline.

Every command reads and writes the documented JSON/NDJSON artifacts and
drops a manifest next to its primary output (the manifest carries the
config snapshot, paths, stage timings and versions; timings live only
there so the artifacts themselves stay byte-reproducible). Exit codes:
0 success, 1 usage error, 2 data or validation error, 3 training
divergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .core import (Config, Dataset, STREAM_SPLIT, SeededRng, ValidationError,
                   load_dataset, read_json, save_dataset,
                   write_json as _write_json)
from .discovery import load_pool, save_pool
from .distance import ShapeletLengthError
from .explain import EncodedReport, build_explain_report, emit_plot_data
from .features import load_features, save_features
from .model import TrainingDivergedError, load_checkpoint, save_checkpoint
from .pipeline import SynthConfig, generate_synthetic, split, subset_channels
from . import workflow
from .workflow import Run, write_manifest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for data
    errors, so usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _config_flags(p: argparse.ArgumentParser, k: bool = True) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, default=None)
    if k:
        p.add_argument("--k", type=int, default=None,
                       help="number of perceptually important points")
    p.add_argument("--g", type=int, default=None, help="shapelet pool size")
    p.add_argument("--rsa", type=int, default=None, help="augmented copies per minority instance")
    p.add_argument("--sigma-scale", type=float, default=None, help="noise std scale")
    p.add_argument("--logsig-depth", type=int, default=None)
    p.add_argument("--channels", default=None, help="comma-separated channel indices, e.g. 0,1")
    p.add_argument("--no-augment", action="store_true", help="ablate augmentation")
    p.add_argument("--no-shapelet-features", action="store_true",
                   help="ablate shapelet distance features")
    p.add_argument("--folds", type=int, default=None, help="cross-validation folds")


def build_config(args) -> Config:
    cfg = Config()
    if getattr(args, "config", None):
        cfg = read_json(args.config, Config.from_dict)
    updates = {}
    for flag, field in [("seed", "seed"), ("k", "k"), ("g", "g"), ("rsa", "r_sa"),
                        ("sigma_scale", "noise_sigma_scale"),
                        ("logsig_depth", "logsig_depth"), ("folds", "folds")]:
        value = getattr(args, flag, None)
        if value is not None:
            updates[field] = value
    channels = getattr(args, "channels", None)
    if channels is not None:
        try:
            updates["channel_subset"] = tuple(int(c) for c in str(channels).split(",") if c != "")
        except ValueError:
            raise ValidationError(f"bad --channels value: {channels!r}") from None
    if getattr(args, "no_augment", False):
        updates["use_augment"] = False
    if getattr(args, "no_shapelet_features", False):
        updates["use_shapelet_features"] = False
    return cfg.with_updates(**updates) if updates else cfg


def _parse_proportions(raw):
    if raw is None:
        return None
    try:
        props = json.loads(raw)
    except ValueError as err:
        raise ValidationError(f"--proportions is not JSON: {err}") from err
    if not isinstance(props, dict):
        raise ValidationError("--proportions must be a JSON object of class -> fraction")
    for k, v in props.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"--proportions value for {k} is {v!r}, not a number")
    return {k: float(v) for k, v in props.items()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _synthesize(args, cfg: Config) -> Dataset:
    """The synth stage of ``synth`` and ``run-all``: generate and keep the
    configured channels."""
    ds = generate_synthetic(SynthConfig(
        n_instances=args.n, class_proportions=_parse_proportions(args.proportions),
        noise=args.noise, seed=cfg.seed, t=args.t))
    if cfg.channel_subset is not None:
        ds = subset_channels(ds, cfg.channel_subset)
    return ds


def cmd_synth(args, run: Run) -> int:
    with run.stage("synth"):
        ds = _synthesize(args, run.config)
    save_dataset(args.out, ds)
    print(f"wrote {len(ds)} instances to {args.out}")
    return EXIT_OK


def cmd_discover(args, run: Run) -> int:
    ds = load_dataset(args.data)
    pool = workflow.discover_stage(run, ds)
    save_pool(args.out, pool)
    print(f"wrote pool of {len(pool)} shapelets to {args.out}")
    return EXIT_OK


def _config_and_pool(run: Run, path):
    """The pool at ``path`` (None without one). The run's config takes the
    channel subset the pool was discovered on: its shapelets' channel
    indices count within that subset. A different subset from the flags or
    --config is refused."""
    if not path:
        return None
    pool = load_pool(path)
    subset = pool.config.get("channel_subset")
    try:
        pool_cfg = run.config.with_updates(
            channel_subset=None if subset is None else tuple(subset))
    except (TypeError, ValueError) as err:
        raise ValidationError(f"pool {path} channel_subset is malformed: {err}") from err
    if run.config.channel_subset not in (None, pool_cfg.channel_subset):
        raise ValidationError(
            f"pool {path} was discovered on channel subset "
            f"{'all channels' if subset is None else list(subset)}, not "
            f"{list(run.config.channel_subset)}; drop --channels to use the pool's")
    run.config = pool_cfg
    return pool


def cmd_augment(args, run: Run) -> int:
    pool = _config_and_pool(run, args.pool)
    ds = load_dataset(args.data)
    out = workflow.augment_stage(run, ds, pool)
    save_dataset(args.out, out)
    print(f"wrote {len(out)} instances ({len(out) - len(ds)} augmented) to {args.out}")
    return EXIT_OK


def cmd_transform(args, run: Run) -> int:
    pool = _config_and_pool(run, args.pool)
    [(z, ids, labels)] = workflow.transform_stage(run, pool, load_dataset(args.data))
    save_features(args.out, z, ids, labels)
    print(f"wrote {z.shape[0]} x {z.shape[1]} feature matrix to {args.out}")
    return EXIT_OK


def cmd_train(args, run: Run) -> int:
    pool = _config_and_pool(run, args.pool)
    ckpt = workflow.train_stage(run, load_features(args.train_features),
                                load_features(args.val_features), pool=pool)
    save_checkpoint(args.out, ckpt)
    print(f"best epoch {ckpt.best_epoch}, validation macro-F1 "
          f"{ckpt.best_val_macro_f1:.4f}; wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args, run: Run) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    run.config = ckpt.config
    ds = load_dataset(args.data)
    with run.stage("evaluate"):
        report = workflow.evaluate_on(ckpt, ds)
    _write_json(args.out, report.to_dict())
    print(f"accuracy {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f}; wrote {args.out}")
    return EXIT_OK


def cmd_tune_k(args, run: Run) -> int:
    with run.stage("tune_k") as counters:
        result = workflow.tune_k(load_dataset(args.data), run.config, counters)
    # The manifest names the k the search recommends, which the fits chose.
    run.config = run.config.with_updates(k=result.best_k)
    _write_json(args.out, result.to_dict())
    print(f"best k = {result.best_k}; wrote {args.out}")
    return EXIT_OK


def cmd_explain(args, run: Run) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    run.config = ckpt.config
    ds = load_dataset(args.data)
    with run.stage("explain"):
        report = build_explain_report(ds, ckpt, all_classes=args.all_classes,
                                      instance_id=args.instance)
    encoded = EncodedReport(report)
    encoded.write(args.out)
    if args.plot_data:
        emit_plot_data(report, args.plot_data, encoded)
        run.outputs["plot_data"] = args.plot_data
    print(f"explained {len(report['instances'])} instance(s); wrote {args.out}")
    return EXIT_OK


def cmd_run_all(args, run: Run) -> int:
    cfg, out_dir = run.config, args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, fname) for name, fname in [
        ("data", "data.ndjson"), ("train", "train.ndjson"), ("val", "val.ndjson"),
        ("pool", "pool.json"), ("train_aug", "train_aug.ndjson"),
        ("features_train", "features_train.ndjson"),
        ("features_val", "features_val.ndjson"),
        ("checkpoint", "checkpoint.json"), ("metrics", "metrics.json"),
    ]}

    with run.stage("synth"):
        ds = _synthesize(args, cfg)
    save_dataset(paths["data"], ds)
    with run.stage("split"):
        train_ds, val_ds = split(ds, args.train_fraction,
                                 SeededRng(cfg.seed).derive(STREAM_SPLIT))
    save_dataset(paths["train"], train_ds, source=(paths["data"], ds))
    save_dataset(paths["val"], val_ds, source=(paths["data"], ds))

    result = workflow.fit(train_ds, val_ds, cfg, run=run)

    run.outputs = {k: paths[k] for k in ("data", "train", "val", "features_train",
                                         "features_val", "checkpoint", "metrics")}
    if result.checkpoint.pool is not None:
        save_pool(paths["pool"], result.checkpoint.pool)
        run.outputs["pool"] = paths["pool"]
    if cfg.use_augment and len(result.train_full) != len(train_ds):
        save_dataset(paths["train_aug"], result.train_full, source=(paths["train"], train_ds))
        run.outputs["train_aug"] = paths["train_aug"]
    save_features(paths["features_train"], *result.train_features)
    save_features(paths["features_val"], *result.val_features)
    save_checkpoint(paths["checkpoint"], result.checkpoint)
    _write_json(paths["metrics"], result.report.to_dict())

    r = result.report
    per_class = " ".join(f"{lab}={r.per_class_f1[lab]:.3f}" for lab in r.classes)
    print(f"accuracy {r.accuracy:.4f}, macro-F1 {r.macro_f1:.4f}, per-class F1: {per_class}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pvashape",
                     description="Shapelet-based ventilator-asynchrony pipeline")
    parser.add_argument("--version", action="version", version=f"pvashape {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, func, help_, output=None, inputs=(), optional=(), config=True, k=True):
        """A subcommand with its ``inputs`` path flags and its ``optional``
        ones, which its manifest lists as inputs, ``--out``, which it lists
        as its ``output``, and the config flags unless ``config`` is false
        (``--k`` among them unless ``k`` is false)."""
        p = sub.add_parser(name, help=help_)
        if config:
            _config_flags(p, k)
        for dest in inputs + optional:
            p.add_argument(f"--{dest.replace('_', '-')}", required=dest in inputs)
        if output:
            p.add_argument("--out", required=True)
        # By name, so the shared parser calls the module's current binding.
        p.set_defaults(func=func.__name__, inputs=inputs + optional, output=output)
        return p

    def synth_flags(p):
        p.add_argument("--n", type=int, default=2000)
        p.add_argument("--proportions", default=None, help="JSON object class -> fraction")
        p.add_argument("--noise", type=float, default=0.1)
        p.add_argument("--t", type=int, default=150)

    synth_flags(add("synth", cmd_synth, "generate a synthetic labeled dataset", "data"))
    add("discover", cmd_discover, "extract a shapelet pool from a dataset", "pool", ("data",))
    add("augment", cmd_augment, "rebalance minority classes with guided noise", "data",
        ("data", "pool"))
    add("transform", cmd_transform, "compute feature vectors", "features", ("data",),
        ("pool",))
    # --pool is the shapelet pool the checkpoint carries.
    add("train", cmd_train, "train the classification head on features", "checkpoint",
        ("train_features", "val_features"), ("pool",))

    # Scoring takes its settings and its pool from the checkpoint.
    add("evaluate", cmd_evaluate, "score a dataset with a checkpoint", "metrics",
        ("data", "checkpoint"), config=False)
    # The grid sets k.
    add("tune-k", cmd_tune_k, "cross-validated search over the k grid", "tuning", ("data",),
        k=False)
    p = add("explain", cmd_explain, "per-instance shapelet match evidence", "report",
            ("data", "checkpoint"), config=False)
    p.add_argument("--instance", default=None, help="explain a single instance id")
    p.add_argument("--all-classes", action="store_true",
                   help="report matches for every class, not just the predicted one")
    p.add_argument("--plot-data", default=None, help="also write plot-ready NDJSON here")

    p = add("run-all", cmd_run_all, "synth, discover, augment, transform, train, evaluate")
    p.add_argument("--out-dir", required=True)
    synth_flags(p)
    p.add_argument("--train-fraction", type=float, default=0.8)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return EXIT_OK if exc.code is None else EXIT_USAGE
    try:
        run = Run(args.command, build_config(args),
                  {name: getattr(args, name) or "" for name in args.inputs},
                  {args.output: args.out} if args.output else {})
        code = globals()[args.func](args, run)
        write_manifest(f"{args.out}.manifest.json" if args.output
                       else os.path.join(args.out_dir, "manifest.json"), run)
        return code
    except TrainingDivergedError as exc:
        print(f"pvashape: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValidationError, ShapeletLengthError) as exc:
        print(f"pvashape: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"pvashape: missing file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"pvashape: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
