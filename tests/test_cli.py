"""Command-line surface: exit codes, artifacts, manifests, chaining."""
import base64
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pvashape import cli, discovery, distance, explain, model, workflow
from pvashape.cli import main
from pvashape.augment import balance_dataset
from pvashape.core import (Config, Dataset, config_hash, load_dataset, save_dataset,
                           write_json)
from pvashape.discovery import load_pool, pool_digest
from pvashape.explain import build_explain_report
from pvashape.features import load_features, save_features, transform_dataset
from pvashape.model import load_checkpoint

RUN_ALL_ORDER = ("synth", "split", "discover", "augment", "transform", "train", "evaluate",
                 "save")
RUN_ALL_STAGES = set(RUN_ALL_ORDER)
TINY = ["--seed", "3", "--k", "5", "--g", "8", "--rsa", "2"]
PROPS = '{"NP": 0.4, "AC": 0.2, "DT": 0.2, "IE": 0.2}'
PROPS_BALANCED = '{"NP": 0.25, "AC": 0.25, "DT": 0.25, "IE": 0.25}'


def _stage_keys(manifest_path):
    """The stages a manifest records timings for."""
    return set(json.loads(manifest_path.read_text())["timings_s"])


def _peak_rss_mib(manifest_path):
    return json.loads(manifest_path.read_text())["peak_rss_mib"]


def _synth_args(out, n=20, t=40):
    return ["synth", "--out", str(out), "--n", str(n), "--t", str(t),
            "--proportions", PROPS] + TINY


def test_synth_writes_data_and_manifest(tmp_path):
    out = tmp_path / "data.ndjson"
    assert main(_synth_args(out)) == 0
    ds = load_dataset(out)
    assert len(ds) == 20
    man = json.loads((tmp_path / "data.ndjson.manifest.json").read_text())
    assert man["command"] == "synth"
    assert man["config"]["k"] == 5
    assert man["outputs"]["data"] == str(out)
    assert "config_hash" in man and "versions" in man
    assert man["seed"] == 3


def test_usage_errors_exit_one(tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["synth", "--out", str(tmp_path / "d"), "--bogus"]) == 1
    assert main(["discover", "--out", str(tmp_path / "p")]) == 1  # missing --data
    # the grid sets k
    assert main(["tune-k", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "t"),
                 "--k", "3"]) == 1
    assert not (tmp_path / "t").exists()


def test_data_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.ndjson")
    assert main(["discover", "--data", missing, "--out", str(tmp_path / "p")]) == 2
    out = tmp_path / "d.ndjson"
    bad_props = ["synth", "--out", str(out), "--n", "10",
                 "--proportions", '{"NP": 0.9}']
    assert main(bad_props) == 2
    assert main(["synth", "--out", str(out), "--n", "10",
                 "--channels", "0,9"]) == 2
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--n", "10", "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["synth", "--out", str(out), "--n", "40", "--t", "40"]) == 0
    tuning = tmp_path / "tuning.json"
    assert main(["tune-k", "--data", str(out), "--out", str(tuning), "--folds", "41"]) == 2
    assert "41 folds but only 40 instances" in capsys.readouterr().err
    assert not tuning.exists()


@pytest.mark.parametrize("props", ['{"NP": true}', '{"NP": "1"}',
                                   '{"NP": "0.25", "AC": 0.25, "DT": 0.25, "IE": 0.25}'],
                         ids=["bool", "string", "string-among-numbers"])
def test_proportions_that_are_not_json_numbers_exit_two(tmp_path, capsys, props):
    out = tmp_path / "d.ndjson"
    assert main(["synth", "--out", str(out), "--n", "20", "--proportions", props]) == 2
    assert "--proportions value for NP is" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("props,share", [('{"NP": 1.5, "AC": -0.5}', "AC is -0.5"),
                                         ('{"NP": NaN, "AC": 0.5}', "NP is nan"),
                                         ('{"NP": Infinity, "AC": -Infinity}', "NP is inf")],
                         ids=["negative", "nan", "infinite"])
def test_proportions_with_a_negative_or_non_finite_share_exit_two(tmp_path, capsys,
                                                                  props, share):
    out = tmp_path / "d.ndjson"
    assert main(["synth", "--out", str(out), "--n", "20", "--t", "40",
                 "--proportions", props]) == 2
    assert f"--proportions share for {share}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_synth_refuses_noise_that_is_not_finite_and_at_least_zero(tmp_path, capsys, noise):
    out = tmp_path / "d.ndjson"
    assert main(["synth", "--out", str(out), "--n", "20", "--t", "40",
                 "--noise", noise]) == 2
    assert f"--noise is {float(noise)}, not a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,config,problem", [
    (["--sigma-scale", "inf"], None, "config noise_sigma_scale must be a finite float, got inf"),
    (["--sigma-scale", "nan"], None, "config noise_sigma_scale must be a finite float, got nan"),
    ([], '{"learning_rate": Infinity}', "config learning_rate must be a finite float, got inf"),
], ids=["infinite-sigma-scale", "nan-sigma-scale", "infinite-learning-rate"])
def test_run_all_refuses_a_non_finite_float_setting(tmp_path, capsys, flags, config, problem):
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(out), "--n", "24", "--t", "40",
                 "--proportions", PROPS] + flags + TINY) == 2
    assert problem in capsys.readouterr().err
    assert not (out / "data.ndjson").exists()


def test_proportions_allow_a_zero_share(tmp_path):
    out = tmp_path / "d.ndjson"
    assert main(["synth", "--out", str(out), "--n", "20", "--t", "40",
                 "--proportions", '{"NP": 0.5, "AC": 0.5, "DT": 0.0}']) == 0
    assert load_dataset(out).class_counts == {"NP": 10, "AC": 10}


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k": 4, "g": 12}))
    out = tmp_path / "d.ndjson"
    rc = main(["synth", "--out", str(out), "--n", "8", "--proportions", PROPS,
               "--config", str(cfg_file), "--k", "6"])
    assert rc == 0
    man = json.loads((tmp_path / "d.ndjson.manifest.json").read_text())
    assert man["config"]["k"] == 6      # flag wins
    assert man["config"]["g"] == 12     # file survives


@pytest.mark.parametrize("doc,problem", [({"rsa": 5}, "unknown config key(s): rsa"),
                                         ({"k": "5"}, "config k must be int"),
                                         ({"threads": 2}, "unknown config key(s): threads"),
                                         ({"seed": -1}, "seed must be >= 0, got -1"),
                                         ({"znorm": True}, "unknown config key(s): znorm")],
                         ids=["unknown-key", "wrong-type", "threads", "negative-seed", "znorm"])
def test_config_file_errors_exit_two(tmp_path, capsys, doc, problem):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "d.ndjson"
    assert main(["synth", "--out", str(out), "--n", "8", "--proportions", PROPS,
                 "--config", str(cfg_file)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("write", [
    lambda path, bad: write_json(path, {"x": bad}),
    lambda path, bad: save_features(path, np.array([[1.0, bad]]), ["a"], ["NP"]),
], ids=["json", "ndjson"])
def test_artifact_write_refuses_nan_and_keeps_target(tmp_path, write):
    target = tmp_path / "artifact.json"
    target.write_text("previous\n")
    with pytest.raises(ValueError):
        write(target, float("nan"))
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """synth -> discover -> augment -> transform -> train, shared by tests."""
    d = tmp_path_factory.mktemp("chain")
    data, pool = d / "data.ndjson", d / "pool.json"
    aug = d / "aug.ndjson"
    ftr, fva = d / "ftr.ndjson", d / "fva.ndjson"
    ckpt, metrics = d / "ckpt.json", d / "metrics.json"
    assert main(_synth_args(data, n=30)) == 0
    assert main(["discover", "--data", str(data), "--out", str(pool)] + TINY) == 0
    assert main(["augment", "--data", str(data), "--pool", str(pool),
                 "--out", str(aug)] + TINY) == 0
    assert main(["transform", "--data", str(aug), "--pool", str(pool),
                 "--out", str(ftr)] + TINY) == 0
    assert main(["transform", "--data", str(data), "--pool", str(pool),
                 "--out", str(fva)] + TINY) == 0
    assert main(["train", "--train-features", str(ftr), "--val-features", str(fva),
                 "--pool", str(pool), "--out", str(ckpt)] + TINY) == 0
    assert main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(metrics)]) == 0
    return d


def test_chain_artifacts(chain):
    pool = load_pool(chain / "pool.json")
    assert len(pool) == 8
    aug = load_dataset(chain / "aug.ndjson")
    counts = aug.class_counts
    assert counts["AC"] == counts["DT"] == counts["IE"]
    z, ids, labels = load_features(chain / "ftr.ndjson")
    assert z.shape[0] == len(aug) and len(ids) == len(labels) == len(aug)
    ckpt = json.loads((chain / "ckpt.json").read_text())
    assert ckpt["classes"] == ["NP", "AC", "DT", "IE"]
    assert "threads" not in ckpt["config"]
    metrics = json.loads((chain / "metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert set(metrics["per_class_f1"]) == {"NP", "AC", "DT", "IE"}


def test_subcommand_manifests_time_their_one_stage(chain, tmp_path):
    report = tmp_path / "explain.json"
    assert main(["explain", "--data", str(chain / "data.ndjson"),
                 "--checkpoint", str(chain / "ckpt.json"), "--out", str(report)]) == 0
    for output, stage in [(chain / "data.ndjson", "synth"), (chain / "pool.json", "discover"),
                          (chain / "aug.ndjson", "augment"), (chain / "ftr.ndjson", "transform"),
                          (chain / "ckpt.json", "train"), (chain / "metrics.json", "evaluate"),
                          (report, "explain")]:
        assert _stage_keys(output.with_name(output.name + ".manifest.json")) == {stage}


def test_manifests_record_peak_rss(chain, tmp_path):
    report = tmp_path / "explain.json"
    assert main(["explain", "--data", str(chain / "data.ndjson"),
                 "--checkpoint", str(chain / "ckpt.json"), "--out", str(report)]) == 0
    for output in (chain / "data.ndjson", chain / "pool.json", chain / "aug.ndjson",
                   chain / "ftr.ndjson", chain / "fva.ndjson", chain / "ckpt.json",
                   chain / "metrics.json", report):
        assert _peak_rss_mib(output.with_name(output.name + ".manifest.json")) > 0


def test_explain_exact_match_has_zero_psd(chain, tmp_path):
    pool_doc = json.loads((chain / "pool.json").read_text())
    target = pool_doc["shapelets"][0]["source_id"]
    report_path = tmp_path / "explain.json"
    rc = main(["explain", "--data", str(chain / "data.ndjson"),
               "--checkpoint", str(chain / "ckpt.json"),
               "--out", str(report_path), "--instance", target, "--all-classes"])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["instances"]) == 1
    inst = report["instances"][0]
    assert inst["id"] == target
    zero = [m for m in inst["matches"] if m["psd"] == 0.0]
    assert zero, "instance containing a pool shapelet must report a 0 distance"
    m = zero[0]
    shapelet = report["shapelets"][m["pool_index"]]
    window = inst["series"][m["channel_name"]][m["offset"] : m["offset"] + shapelet["length"]]
    assert window == shapelet["values"]


@pytest.mark.parametrize("args", [["--all-classes"], ["--instance", "syn-00004"]])
def test_explain_evidence_equals_transform_features(chain, tmp_path, args):
    report_path = tmp_path / "explain.json"
    rc = main(["explain", "--data", str(chain / "data.ndjson"),
               "--checkpoint", str(chain / "ckpt.json"), "--out", str(report_path)] + args)
    assert rc == 0
    report = json.loads(report_path.read_text())
    z, ids, _ = load_features(chain / "fva.ndjson")
    row = {id_: i for i, id_ in enumerate(ids)}
    checked = 0
    for inst in report["instances"]:
        for m in inst["matches"]:
            assert m["psd"] == z[row[inst["id"]], m["pool_index"]]
            shapelet = report["shapelets"][m["pool_index"]]
            assert (m["label"], m["channel"]) == (shapelet["label"], shapelet["channel"])
            series = inst["series"][m["channel_name"]]
            window = series[m["offset"] : m["offset"] + shapelet["length"]]
            assert len(window) == len(shapelet["values"]) == shapelet["length"]
            checked += 1
    assert checked > 0
    if "--instance" in args:
        assert [inst["id"] for inst in report["instances"]] == ["syn-00004"]
        assert {m["label"] for m in report["instances"][0]["matches"]} == {
            report["instances"][0]["predicted"]}


def test_explain_report_states_the_pool_once_on_one_line(chain, tmp_path):
    report_path = tmp_path / "explain.json"
    assert main(_scoring_args("explain", chain, chain / "ckpt.json", report_path)
                + ["--all-classes"]) == 0
    text = report_path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    report = json.loads(text)
    pool = load_pool(chain / "pool.json")
    ckpt = load_checkpoint(chain / "ckpt.json")
    assert report == build_explain_report(load_dataset(chain / "data.ndjson"), ckpt,
                                          all_classes=True)
    assert report["pool_sha256"] == pool_digest(ckpt.pool) == pool_digest(pool)
    assert report["shapelets"] == [
        {"label": s.label, "channel": s.channel, "length": len(s), "values": s.values.tolist()}
        for s in pool.shapelets]
    for inst in report["instances"]:
        for m in inst["matches"]:
            assert "shapelet_values" not in m and "window_values" not in m


def test_plot_overlays_carry_the_pool_values(chain, tmp_path):
    plot_path = tmp_path / "plot.ndjson"
    assert main(_scoring_args("explain", chain, chain / "ckpt.json", tmp_path / "explain.json")
                + ["--all-classes", "--plot-data", str(plot_path)]) == 0
    pool = load_pool(chain / "pool.json")
    overlays = [ov for line in plot_path.read_text().splitlines()
                for ov in json.loads(line)["overlays"]]
    assert overlays
    for ov in overlays:
        assert ov["values"] == pool.shapelets[int(ov["shapelet"][1:])].values.tolist()


@pytest.mark.parametrize("all_classes", [False, True])
def test_plot_data_lines_are_the_json_of_their_documents(chain, tmp_path, all_classes):
    """Lines are assembled from parts encoded once, and read as the
    ``json.dumps`` of the whole document would."""
    report = build_explain_report(load_dataset(chain / "data.ndjson"),
                                  load_checkpoint(chain / "ckpt.json"), all_classes=all_classes)
    explain.emit_plot_data(report, tmp_path / "plot.ndjson")
    docs = [{"id": e["id"], "label": e["label"], "predicted": e["predicted"],
             "time": list(range(len(next(iter(e["series"].values()))))),
             "series": e["series"],
             "overlays": [{key: m[key] for key in ("shapelet", "label", "channel",
                                                   "channel_name", "offset", "psd")}
                          | {"values": report["shapelets"][m["pool_index"]]["values"]}
                          for m in e["matches"]]}
            for e in report["instances"]]
    assert any(doc["overlays"] for doc in docs)
    assert (tmp_path / "plot.ndjson").read_text() == "".join(
        json.dumps(doc) + "\n" for doc in docs)


def _plot_doc(report, entry):
    """The plot document of one report instance, as a plain dict."""
    return {"id": entry["id"], "label": entry["label"], "predicted": entry["predicted"],
            "time": list(range(len(next(iter(entry["series"].values()))))),
            "series": entry["series"],
            "overlays": [{key: m[key] for key in ("shapelet", "label", "channel",
                                                  "channel_name", "offset", "psd")}
                         | {"values": report["shapelets"][m["pool_index"]]["values"]}
                         for m in entry["matches"]]}


def _renamed_channels(ds):
    """``ds`` with channel names out of sorted order, one of them non-ASCII
    and one that JSON must escape."""
    names = ("Pmask", 'Flow "raw"', "Thorax\u00e9", "Abdo\\1")
    return Dataset([replace(x, channel_names=names) for x in ds])


def _mixed_lengths(ds):
    """``ds`` with every third instance cut to a shorter unpadded region."""
    out = []
    for i, x in enumerate(ds):
        if i % 3 == 0:
            n = x.original_length - 4 - i
            values = x.values.copy()
            values[:, n:] = 0.0
            x = replace(x, values=values, original_length=n)
        out.append(x)
    return Dataset(out)


@pytest.mark.parametrize("data", ["plain", "renamed", "mixed"])
@pytest.mark.parametrize("args", [[], ["--all-classes"], ["--instance", "syn-00004"]],
                         ids=["default", "all-classes", "instance"])
def test_explain_writes_the_json_of_its_report_and_plot_documents(chain, tmp_path, data,
                                                                   args):
    """Both files are assembled from parts encoded once, and each reads
    byte for byte as ``json.dumps`` of its whole document."""
    ds = load_dataset(chain / "data.ndjson")
    if data != "plain":
        ds = {"renamed": _renamed_channels, "mixed": _mixed_lengths}[data](ds)
        save_dataset(tmp_path / "data.ndjson", ds)
    source = chain if data == "plain" else tmp_path
    report_path, plot_path = tmp_path / "explain.json", tmp_path / "plot.ndjson"
    assert main(_scoring_args("explain", source, chain / "ckpt.json", report_path)
                + ["--plot-data", str(plot_path)] + args) == 0
    report = build_explain_report(ds, load_checkpoint(chain / "ckpt.json"),
                                  all_classes="--all-classes" in args,
                                  instance_id="syn-00004" if "--instance" in args else None)
    assert report_path.read_text() == json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    assert plot_path.read_text().splitlines(keepends=True) == [
        json.dumps(_plot_doc(report, entry)) + "\n" for entry in report["instances"]]
    if data == "mixed" and not args:
        assert len({len(e["series"]["Flow"]) for e in report["instances"]}) > 1
    if data == "renamed":
        assert list(report["instances"][0]["series"]) != sorted(report["instances"][0]["series"])


def _poison(report, part):
    entry = report["instances"][0]
    if part == "values":
        report["shapelets"][0]["values"][0] = float("nan")
    elif part == "series":
        next(iter(entry["series"].values()))[1] = float("inf")
    elif part == "psd":
        entry["matches"][0]["psd"] = float("nan")
    else:
        entry["probabilities"][report["classes"][0]] = float("-inf")


@pytest.mark.parametrize("part", ["values", "series", "psd", "probabilities"])
def test_explain_writers_refuse_a_non_finite_part(chain, tmp_path, part):
    report = build_explain_report(load_dataset(chain / "data.ndjson"),
                                  load_checkpoint(chain / "ckpt.json"))
    _poison(report, part)
    with pytest.raises(ValueError):
        explain.EncodedReport(report).write(tmp_path / "explain.json")
    if part != "probabilities":                 # a plot document has none
        with pytest.raises(ValueError):
            explain.emit_plot_data(report, tmp_path / "plot.ndjson")
    assert list(tmp_path.iterdir()) == []


def _mutate_first(rec, kind):
    if kind == "wider":
        rec["values"] = [row + [0.0] * 10 for row in rec["values"]]
    elif kind == "channels":
        rec["channels"] = rec["channels"][::-1]
    elif kind in ("nan", "inf"):
        rec["values"][0][1] = float(kind)


@pytest.mark.parametrize("kind", ["wider", "channels", "duplicate-id", "nan", "inf"])
def test_evaluate_rejects_inconsistent_input(chain, tmp_path, kind, capsys):
    lines = (chain / "data.ndjson").read_text().splitlines()[:6]
    recs = [json.loads(line) for line in lines]
    if kind == "duplicate-id":
        recs[1]["id"] = recs[0]["id"]
    else:
        _mutate_first(recs[1], kind)
    bad = tmp_path / "bad.ndjson"
    bad.write_text("".join(json.dumps(r) + "\n" for r in recs))
    rc = main(["evaluate", "--data", str(bad), "--checkpoint", str(chain / "ckpt.json"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert recs[1]["id"] in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("cmd", ["discover", "augment", "transform", "evaluate", "explain"])
def test_empty_dataset_exits_two(chain, tmp_path, capsys, cmd):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("\n")
    out = tmp_path / "out.json"
    extra = {"discover": [], "augment": ["--pool", str(chain / "pool.json")],
             "transform": ["--pool", str(chain / "pool.json")],
             "evaluate": ["--checkpoint", str(chain / "ckpt.json")],
             "explain": ["--checkpoint", str(chain / "ckpt.json")]}[cmd]
    assert main([cmd, "--data", str(empty), "--out", str(out)] + extra) == 2
    assert f"{empty}: the dataset holds no instances" in capsys.readouterr().err
    assert not out.exists()


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _break_pool(doc, kind):
    if kind == "empty-object":
        return {}
    if kind == "shapelet-without-values":
        del doc["shapelets"][0]["values"]
    elif kind == "fractional-span":
        doc["shapelets"][1]["start"] += 0.5
        doc["shapelets"][1]["end"] += 0.5
    elif kind == "fractional-quota":
        doc["per_class_quota"] = 2.5
    else:
        doc["shapelets"][0]["channel"] = {"channel-minus-one": -1, "channel-nine": 9,
                                          "fractional-channel": 0.9, "bool-channel": True}[kind]
    return doc


@pytest.mark.parametrize("kind,problem", [
    ("empty-object", "pool.json: pool missing field 'shapelets'"),
    ("shapelet-without-values", "pool.json: pool missing field 'values'"),
    ("channel-minus-one", "pool.json: shapelet channel -1 is negative"),
    ("channel-nine", "shapelet channel 9 is out of range for data with 4 channels"),
    ("fractional-channel", "pool.json: shapelet 0 channel is 0.9, not an integer"),
    ("fractional-span", "pool.json: shapelet 1 start is"),
    ("bool-channel", "pool.json: shapelet 0 channel is True, not an integer"),
    ("fractional-quota", "pool.json: per_class_quota is 2.5, not an integer"),
], ids=["empty-object", "shapelet-without-values", "channel-minus-one", "channel-nine",
        "fractional-channel", "fractional-span", "bool-channel", "fractional-quota"])
def test_transform_refuses_a_malformed_pool(chain, tmp_path, capsys, kind, problem):
    bad = tmp_path / "pool.json"
    bad.write_text(json.dumps(_break_pool(json.loads((chain / "pool.json").read_text()), kind)))
    out = tmp_path / "feats.ndjson"
    assert main(["transform", "--data", str(chain / "data.ndjson"), "--pool", str(bad),
                 "--out", str(out)] + TINY) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_repeated_channel_indices_exit_two(chain, tmp_path, capsys, source):
    out = tmp_path / "pool.json"
    args = ["discover", "--data", str(chain / "data.ndjson"), "--out", str(out)] + TINY
    if source == "flag":
        args += ["--channels", "0,0"]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"channel_subset": [1, 2, 1]}))
        args += ["--config", str(cfg_file)]
    assert main(args) == 2
    assert "channel_subset repeats a channel" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([] if source == "flag" else [tmp_path / "cfg.json"])


@pytest.mark.parametrize("channels", ["1,0,2,3", ""], ids=["reordered", "empty"])
def test_reordered_or_empty_channel_subset_exits_two(tmp_path, capsys, channels):
    # scoring takes data with as many channels as the subset to be subset
    # already, so a reordering would be applied by synth and lost at scoring
    out = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(out), "--n", "24", "--t", "40",
                 "--proportions", PROPS, "--channels", channels] + TINY) == 2
    assert ("channel_subset must list at least one channel in increasing order"
            in capsys.readouterr().err)
    assert not out.exists()


def test_dataset_line_that_is_not_an_object_exits_two(chain, tmp_path, capsys):
    lines = (chain / "data.ndjson").read_text().splitlines()[:3]
    lines.insert(1, "[1, 2]")
    bad = tmp_path / "bad.ndjson"
    _write_lines(bad, lines)
    out = tmp_path / "feats.ndjson"
    assert main(["transform", "--data", str(bad), "--out", str(out)] + TINY) == 2
    assert f"{bad}:2: dataset record is a JSON list, not an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [12.9, True, "12"], ids=["fraction", "bool", "string"])
def test_dataset_original_length_that_is_not_an_integer_exits_two(chain, tmp_path, capsys,
                                                                   value):
    """Not truncated: the record is zero from sample 12 on, so reading
    12.9 as 12 would pass every other check."""
    recs = [json.loads(line) for line in (chain / "data.ndjson").read_text().splitlines()[:3]]
    recs[1]["values"] = [row[:12] + [0.0] * (len(row) - 12) for row in recs[1]["values"]]
    recs[1]["original_length"] = value
    bad = tmp_path / "bad.ndjson"
    _write_lines(bad, [json.dumps(rec) for rec in recs])
    out = tmp_path / "feats.ndjson"
    assert main(["transform", "--data", str(bad), "--out", str(out)] + TINY) == 2
    assert (f"{bad}:2: dataset record original_length is {value!r}, not an integer"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("kind,problem", [
    ("without-z", "features record missing field 'z'"),
    ("null", "z is not a list of finite numbers"),
    ("ragged", "features, but the first record has"),
], ids=["without-z", "null", "ragged"])
def test_train_refuses_malformed_features(chain, tmp_path, capsys, kind, problem):
    recs = [json.loads(line) for line in (chain / "ftr.ndjson").read_text().splitlines()]
    if kind == "without-z":
        del recs[2]["z"]
    elif kind == "null":
        recs[2]["z"][0] = None
    else:
        recs[2]["z"] = recs[2]["z"][:-1]
    bad = tmp_path / "ftr.ndjson"
    _write_lines(bad, [json.dumps(rec) for rec in recs])
    out = tmp_path / "ckpt.json"
    assert main(["train", "--train-features", str(bad), "--val-features",
                 str(chain / "fva.ndjson"), "--out", str(out)] + TINY) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3: " in err and problem in err
    assert not out.exists()


def test_explain_predicts_what_evaluate_scores(chain, tmp_path):
    # explain over the whole file runs the head pass evaluate runs, so its
    # (label, predicted) counts are evaluate's confusion matrix
    report_path = tmp_path / "explain.json"
    assert main(_scoring_args("explain", chain, chain / "ckpt.json", report_path)) == 0
    report = json.loads(report_path.read_text())
    metrics = json.loads((chain / "metrics.json").read_text())
    classes = metrics["classes"]
    counts = np.zeros((len(classes), len(classes)), dtype=int)
    for inst in report["instances"]:
        counts[classes.index(inst["label"]), classes.index(inst["predicted"])] += 1
        probs = inst["probabilities"]
        assert inst["predicted"] == max(classes, key=lambda c: probs[c])
    assert counts.tolist() == metrics["confusion"]
    assert len(report["instances"]) == 30


def _scoring_args(cmd, chain, checkpoint, out):
    return [cmd, "--data", str(chain / "data.ndjson"), "--checkpoint", str(checkpoint),
            "--out", str(out)]


def test_checkpoint_carries_the_pool_it_was_trained_with(chain):
    assert (pool_digest(load_checkpoint(chain / "ckpt.json").pool)
            == pool_digest(load_pool(chain / "pool.json")))


def test_subcommands_reproduce_run_all(tmp_path):
    """discover -> augment -> transform -> train -> evaluate on run-all's
    split writes run-all's artifacts byte for byte."""
    flags = ["--k", "5", "--g", "8", "--rsa", "2"]
    run, sub = tmp_path / "run", tmp_path / "sub"
    sub.mkdir()
    assert main(["run-all", "--out-dir", str(run), "--n", "40", "--t", "40",
                 "--proportions", PROPS_BALANCED] + flags) == 0
    train, val, pool = run / "train.ndjson", run / "val.ndjson", sub / "pool.json"
    steps = [
        ["discover", "--data", train, "--out", pool],
        ["augment", "--data", train, "--pool", pool, "--out", sub / "train_aug.ndjson"],
        ["transform", "--data", sub / "train_aug.ndjson", "--pool", pool,
         "--out", sub / "features_train.ndjson"],
        ["transform", "--data", val, "--pool", pool, "--out", sub / "features_val.ndjson"],
        ["train", "--train-features", sub / "features_train.ndjson",
         "--val-features", sub / "features_val.ndjson", "--pool", pool,
         "--out", sub / "checkpoint.json"],
    ]
    for step in steps:
        assert main([str(a) for a in step] + flags) == 0, step[0]
    assert main(["evaluate", "--data", str(val), "--checkpoint", str(sub / "checkpoint.json"),
                 "--out", str(sub / "metrics.json")]) == 0
    for name in ("pool.json", "train_aug.ndjson", "features_train.ndjson",
                 "features_val.ndjson", "checkpoint.json", "metrics.json"):
        assert (sub / name).read_bytes() == (run / name).read_bytes(), name
    # The same stage functions count the same things, and every manifest
    # has run-all's keys; only a stage that counts nothing has no counters.
    whole = json.loads((run / "manifest.json").read_text())
    for name, stage in [("pool.json", "discover"), ("train_aug.ndjson", "augment"),
                        ("features_train.ndjson", None), ("features_val.ndjson", None),
                        ("checkpoint.json", "train"), ("metrics.json", None)]:
        man = json.loads((sub / f"{name}.manifest.json").read_text())
        assert set(man) | {"counters"} == set(whole), name
        if stage is None:
            assert "counters" not in man, name
        else:
            assert man["counters"] == {stage: whole["counters"][stage]}, name


def test_run_all_dataset_files_read_as_fresh_encodings(tmp_path):
    """run-all copies the lines of instances it has already written (train
    and val from data, train_aug from train); each file is still what
    encoding its instances afresh writes."""
    run = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(run), "--n", "40", "--t", "40",
                 "--proportions", PROPS, "--k", "5", "--g", "8", "--rsa", "2"]) == 0
    for name in ("data", "train", "val", "train_aug"):
        save_dataset(tmp_path / name, load_dataset(run / f"{name}.ndjson"))
        assert (tmp_path / name).read_bytes() == (run / f"{name}.ndjson").read_bytes(), name


def test_save_dataset_copies_only_the_source_s_own_instances(tmp_path):
    assert main(_synth_args(tmp_path / "d.ndjson", n=4)) == 0
    ds = load_dataset(tmp_path / "d.ndjson")
    save_dataset(tmp_path / "a.ndjson", ds)
    # the same id on another object is encoded, not copied
    other = Dataset((replace(ds[0], values=ds[0].values + 1.0), ds[1]))
    save_dataset(tmp_path / "b.ndjson", other, source=(tmp_path / "a.ndjson", ds))
    save_dataset(tmp_path / "c.ndjson", other)
    assert (tmp_path / "b.ndjson").read_bytes() == (tmp_path / "c.ndjson").read_bytes()
    assert (tmp_path / "b.ndjson").read_text().splitlines()[1] == \
        (tmp_path / "a.ndjson").read_text().splitlines()[1]


def test_scoring_reads_no_pool_file(tmp_path):
    run = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(run), "--n", "24", "--t", "40",
                 "--proportions", PROPS, "--train-fraction", "0.75"] + TINY) == 0
    (run / "pool.json").unlink()
    for cmd in ("evaluate", "explain"):
        assert main([cmd, "--data", str(run / "val.ndjson"), "--checkpoint",
                     str(run / "checkpoint.json"), "--out", str(tmp_path / f"{cmd}.json")]) == 0
    # one scoring path: the held-out file scores as run-all scored its split
    assert (tmp_path / "evaluate.json").read_bytes() == (run / "metrics.json").read_bytes()


@pytest.mark.parametrize("cmd", ["evaluate", "explain"])
def test_scoring_refuses_a_pool_flag(chain, tmp_path, cmd):
    out = tmp_path / "out.json"
    assert main(_scoring_args(cmd, chain, chain / "ckpt.json", out)
                + ["--pool", str(chain / "pool.json")]) == 1
    assert not out.exists()


def test_scoring_hashes_the_pool_only_for_the_report(chain, tmp_path, monkeypatch):
    calls = []

    def counted(pool):
        calls.append(pool)
        return pool_digest(pool)

    for module in (cli, discovery, explain, model, workflow):
        if hasattr(module, "pool_digest"):
            monkeypatch.setattr(module, "pool_digest", counted)
    assert main(_scoring_args("evaluate", chain, chain / "ckpt.json", tmp_path / "m.json")) == 0
    assert calls == []
    assert main(_scoring_args("explain", chain, chain / "ckpt.json", tmp_path / "r.json")) == 0
    assert len(calls) == 1


def test_train_without_a_pool_under_shapelet_features_exits_two(chain, tmp_path, capsys):
    out = tmp_path / "ckpt.json"
    assert main(["train", "--train-features", str(chain / "ftr.ndjson"),
                 "--val-features", str(chain / "fva.ndjson"), "--out", str(out)] + TINY) == 2
    assert "shapelet features are enabled but no shapelet pool was given" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_checkpoint_refuses_features_of_another_width(chain, tmp_path, capsys):
    # the embedded pool lacks a shapelet, so its features are one narrower
    # than the head's input
    ckpt = json.loads((chain / "ckpt.json").read_text())
    ckpt["pool"]["shapelets"] = ckpt["pool"]["shapelets"][:-1]
    smaller = tmp_path / "ckpt.json"
    smaller.write_text(json.dumps(ckpt))
    for cmd in ("evaluate", "explain"):
        out = tmp_path / f"{cmd}.json"
        assert main(_scoring_args(cmd, chain, smaller, out)) == 2
        assert "features per instance, but the checkpoint's head takes" in (
            capsys.readouterr().err)
        assert not out.exists()


def _list_form(weights):
    """The weights as one decimal list per parameter, the earlier format."""
    return {name: np.frombuffer(base64.b64decode(rec["float64_le"]), "<f8")
            .reshape(rec["shape"]).tolist() for name, rec in weights.items()}


def _truncated(weights):
    raw = base64.b64decode(weights["w2"]["float64_le"])[:-8]
    weights["w2"]["float64_le"] = base64.b64encode(raw).decode()
    return weights


@pytest.mark.parametrize("rewrite", [_list_form, _truncated], ids=["list-form", "truncated"])
def test_scoring_refuses_a_checkpoint_in_another_format(chain, tmp_path, capsys, rewrite):
    ckpt = json.loads((chain / "ckpt.json").read_text())
    ckpt["weights"] = rewrite(ckpt["weights"])
    old = tmp_path / "ckpt.json"
    old.write_text(json.dumps(ckpt))
    for cmd in ("evaluate", "explain"):
        out = tmp_path / f"{cmd}.json"
        assert main(_scoring_args(cmd, chain, old, out)) == 2
        assert "rewrite the checkpoint with `train` or `run-all`" in capsys.readouterr().err
        assert not out.exists()


def test_benchmark_checks_pass_the_checkpoint_s_znorm(chain):
    """perfbench/run.py passes a loaded checkpoint's `config.znorm` to
    `psd` and `transform_dataset`: it reads false, each pool shapelet
    matches its source span at 0, and the transform equals `featurize`."""
    config = load_checkpoint(chain / "ckpt.json").config
    pool = load_pool(chain / "pool.json")
    data = load_dataset(chain / "data.ndjson")
    assert config.znorm is False and "znorm" not in config.to_dict()
    by_id = {x.id: x for x in data}
    for s in pool.shapelets:
        assert distance.psd(by_id[s.source_id], s.channel, s.values,
                            znorm=config.znorm).psd == 0.0
    z, ids, labels = transform_dataset(data, pool, config.logsig_depth,
                                       include_shapelets=config.use_shapelet_features,
                                       znorm=config.znorm)
    want_z, want_ids, want_labels = workflow.featurize(data, pool, config)
    assert np.array_equal(z, want_z) and ids == want_ids and labels == want_labels


def test_benchmark_keywords_refuse_z_normalization(chain):
    data = load_dataset(chain / "data.ndjson")
    pool = load_pool(chain / "pool.json")
    s = pool.shapelets[0]
    with pytest.raises(ValueError, match="windows are matched raw"):
        distance.psd(data[0], s.channel, s.values, znorm=True)
    with pytest.raises(ValueError, match="windows are matched raw"):
        transform_dataset(data, pool, 2, znorm=True)


def _break_checkpoint(doc, kind):
    scaler = doc["scaler"]
    if kind == "scaler-one-wide":
        doc["scaler"] = {"mean": [0.0], "std": [1.0]}
    elif kind == "scaler-without-std":
        del scaler["std"]
    elif kind == "scaler-zero-std":
        scaler["std"] = [0.0] * len(scaler["std"])
    elif kind == "scaler-nan-mean":
        scaler["mean"][0] = float("nan")
    elif kind == "scaler-2d":
        scaler["mean"], scaler["std"] = [scaler["mean"]], [scaler["std"]]
    elif kind == "classes-repeated":
        doc["classes"][1] = doc["classes"][0]
    elif kind == "classes-short":
        doc["classes"] = doc["classes"][:-1]
    elif kind == "classes-not-strings":
        doc["classes"] = list(range(len(doc["classes"])))
    elif kind == "history-integer":
        doc["history"] = 3
    elif kind == "pool-null":
        doc["pool"] = None
    elif kind == "config-znorm":      # as written while znorm was a config key
        doc["config"]["znorm"] = False
    else:
        doc["best_epoch"] = "best"
    return doc


CHECKPOINT_BREAKS = {
    "scaler-one-wide": "checkpoint scaler covers 1 features, but the head takes",
    "scaler-without-std": "scaler missing field 'std'",
    "scaler-zero-std": "scaler std has entries <= 0",
    "scaler-nan-mean": "scaler holds NaN or infinite values",
    "scaler-2d": "scaler mean and std are not two lists of one length",
    "classes-repeated": "checkpoint classes are not 4 distinct strings",
    "classes-short": "checkpoint classes are not 4 distinct strings",
    "classes-not-strings": "checkpoint classes are not 4 distinct strings",
    "history-integer": "checkpoint history is not a list",
    "pool-null": "checkpoint uses shapelet features but holds no pool",
    "config-znorm": "unknown config key(s): znorm; rewrite the checkpoint",
    "best-epoch-text": "is malformed",
}


@pytest.mark.parametrize("cmd", ["evaluate", "explain"])
@pytest.mark.parametrize("kind", list(CHECKPOINT_BREAKS))
def test_scoring_refuses_a_malformed_checkpoint(chain, tmp_path, capsys, cmd, kind):
    bad = tmp_path / "ckpt.json"
    bad.write_text(json.dumps(_break_checkpoint(
        json.loads((chain / "ckpt.json").read_text()), kind)))
    out = tmp_path / "out.json"
    assert main(_scoring_args(cmd, chain, bad, out)) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and CHECKPOINT_BREAKS[kind] in err
    assert not out.exists()


def _break_pool_numbers(doc, kind):
    first = doc["shapelets"][0]
    if kind == "nan-value":
        first["values"][1] = float("nan")
    elif kind == "2d-values":
        first["values"] = [first["values"]] * len(first["values"])
    else:
        first[kind] = {"info_gain": float("inf"), "split_threshold": float("nan"),
                       "max_train_psd": float("-inf")}[kind]
    return doc


POOL_NUMBER_BREAKS = {
    "nan-value": "shapelet 0 values are not a list of finite numbers",
    "2d-values": "shapelet 0 values are not a list of finite numbers",
    "info_gain": "shapelet 0 info_gain is inf, not a finite number",
    "split_threshold": "shapelet 0 split_threshold is nan, not a finite number",
    "max_train_psd": "shapelet 0 max_train_psd is -inf, not a finite number",
}


@pytest.mark.parametrize("cmd", ["augment", "transform"])
@pytest.mark.parametrize("kind", list(POOL_NUMBER_BREAKS))
def test_pool_readers_refuse_non_finite_numbers(chain, tmp_path, capsys, cmd, kind):
    bad = tmp_path / "pool.json"
    bad.write_text(json.dumps(_break_pool_numbers(
        json.loads((chain / "pool.json").read_text()), kind)))
    out = tmp_path / "out.ndjson"
    assert main([cmd, "--data", str(chain / "data.ndjson"), "--pool", str(bad),
                 "--out", str(out)] + TINY) == 2
    assert f"{bad}: {POOL_NUMBER_BREAKS[kind]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["evaluate", "explain"])
@pytest.mark.parametrize("kind", list(POOL_NUMBER_BREAKS))
def test_checkpoint_refuses_an_embedded_pool_with_non_finite_numbers(chain, tmp_path, capsys,
                                                                     cmd, kind):
    ckpt = json.loads((chain / "ckpt.json").read_text())
    ckpt["pool"] = _break_pool_numbers(ckpt["pool"], kind)
    bad = tmp_path / "ckpt.json"
    bad.write_text(json.dumps(ckpt))
    out = tmp_path / "out.json"
    assert main(_scoring_args(cmd, chain, bad, out)) == 2
    assert f"{bad}: {POOL_NUMBER_BREAKS[kind]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["evaluate", "explain", "synth"])
def test_empty_json_document_exits_two_naming_the_file(chain, tmp_path, capsys, cmd):
    empty = tmp_path / "empty.json"
    empty.write_text("\n")
    out = tmp_path / "out.json"
    if cmd == "synth":
        argv = ["synth", "--out", str(out), "--n", "8", "--proportions", PROPS,
                "--config", str(empty)]
    else:
        argv = _scoring_args(cmd, chain, empty, out)
    assert main(argv) == 2
    assert f"{empty}: invalid JSON: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--k", "99"], ["--rsa", "7"], ["--no-shapelet-features"],
                                   ["--logsig-depth", "5"], ["--config", "cfg.json"],
                                   ["--threads", "2"]],
                         ids=["k", "rsa", "no-shapelet-features", "logsig-depth", "config",
                              "threads"])
def test_scoring_refuses_config_flags_it_would_ignore(chain, tmp_path, flags):
    for cmd in ("evaluate", "explain"):
        out = tmp_path / f"{cmd}.json"
        assert main(_scoring_args(cmd, chain, chain / "ckpt.json", out) + flags) == 1
        assert not out.exists()


def test_explain_unknown_instance_exits_two(chain, tmp_path):
    rc = main(["explain", "--data", str(chain / "data.ndjson"),
               "--checkpoint", str(chain / "ckpt.json"),
               "--out", str(tmp_path / "r.json"), "--instance", "absent"])
    assert rc == 2


def test_plot_data_overlays_align(chain, tmp_path):
    report_path = tmp_path / "explain.json"
    plot_path = tmp_path / "plot.ndjson"
    rc = main(["explain", "--data", str(chain / "data.ndjson"),
               "--checkpoint", str(chain / "ckpt.json"),
               "--out", str(report_path), "--plot-data", str(plot_path)])
    assert rc == 0
    lines = [json.loads(l) for l in plot_path.read_text().splitlines() if l]
    assert len(lines) == 30
    for rec in lines:
        n = len(rec["time"])
        for vals in rec["series"].values():
            assert len(vals) == n
        for ov in rec["overlays"]:
            assert 0 <= ov["offset"] <= n - len(ov["values"])


def test_train_divergence_exits_three(chain, tmp_path):
    cfg_file = tmp_path / "diverge.json"
    cfg_file.write_text(json.dumps({"learning_rate": 1e308, "max_epochs": 5}))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--train-features", str(chain / "ftr.ndjson"),
                   "--val-features", str(chain / "fva.ndjson"),
                   "--pool", str(chain / "pool.json"),
                   "--out", str(tmp_path / "c.json"), "--config", str(cfg_file)])
    assert rc == 3


@pytest.mark.parametrize("doc,problem", [
    ({"learning_rate": -1.0, "max_epochs": 3}, "learning_rate must be finite and > 0"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
], ids=["negative-learning-rate", "zero-batch-size"])
def test_train_refuses_out_of_range_config(chain, tmp_path, capsys, doc, problem):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "c.json"
    assert main(["train", "--train-features", str(chain / "ftr.ndjson"),
                 "--val-features", str(chain / "fva.ndjson"),
                 "--out", str(out), "--config", str(cfg_file)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_run_all_seeded_twice_identical(tmp_path):
    args = lambda d: (["run-all", "--out-dir", str(d), "--n", "24", "--t", "40",
                       "--proportions", PROPS, "--train-fraction", "0.75"] + TINY)
    assert main(args(tmp_path / "a")) == 0
    assert main(args(tmp_path / "b")) == 0
    for name in ("pool.json", "checkpoint.json", "metrics.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert set(man["outputs"]) >= {"data", "train", "val", "pool", "checkpoint",
                                   "metrics", "features_train", "features_val"}
    assert _stage_keys(tmp_path / "a" / "manifest.json") == RUN_ALL_STAGES
    assert _peak_rss_mib(tmp_path / "a" / "manifest.json") > 0
    assert man["counters"]["discover"]["candidates"] > 0


def test_manifests_count_copies_epochs_and_stage_peaks(chain, tmp_path):
    """Copies, epochs and each stage's peak memory go to the manifests,
    from run-all and from the augment and train subcommands alike."""
    out = tmp_path / "a"
    assert main(["run-all", "--out-dir", str(out), "--n", "24", "--t", "40",
                 "--proportions", PROPS, "--train-fraction", "0.75"] + TINY) == 0
    man = json.loads((out / "manifest.json").read_text())
    copies = _count_lines(out / "train_aug.ndjson") - _count_lines(out / "train.ndjson")
    history = json.loads((out / "checkpoint.json").read_text())["history"]
    assert man["counters"]["augment"] == {"copies": copies, "unaugmentable": 0} and copies > 0
    assert man["counters"]["train"] == {"epochs": len(history)}
    peaks = man["stage_peak_rss_mib"]
    assert set(peaks) == RUN_ALL_STAGES
    in_run_order = [peaks[stage] for stage in RUN_ALL_ORDER]
    assert in_run_order == sorted(in_run_order)
    assert 0 < max(peaks.values()) <= man["peak_rss_mib"]
    aug = json.loads((chain / "aug.ndjson.manifest.json").read_text())
    assert aug["counters"]["augment"]["copies"] == (
        _count_lines(chain / "aug.ndjson") - _count_lines(chain / "data.ndjson"))
    ckpt = json.loads((chain / "ckpt.json.manifest.json").read_text())
    assert ckpt["counters"]["train"]["epochs"] == len(
        json.loads((chain / "ckpt.json").read_text())["history"])
    assert set(ckpt["stage_peak_rss_mib"]) == {"train"}
    for name in ("aug.ndjson", "ckpt.json"):
        assert "unaugmentable" not in (chain / name).read_text()


def test_manifests_list_every_path_flag_as_an_input(chain, tmp_path):
    """A manifest's inputs are the command's path flags: `train` lists the
    pool it reads, and `transform` an empty pool when it has none."""
    ckpt = json.loads((chain / "ckpt.json.manifest.json").read_text())
    assert ckpt["inputs"] == {"train_features": str(chain / "ftr.ndjson"),
                              "val_features": str(chain / "fva.ndjson"),
                              "pool": str(chain / "pool.json")}
    assert ckpt["outputs"] == {"checkpoint": str(chain / "ckpt.json")}
    aug = json.loads((chain / "aug.ndjson.manifest.json").read_text())
    assert aug["inputs"] == {"data": str(chain / "data.ndjson"),
                             "pool": str(chain / "pool.json")}
    assert aug["outputs"] == {"data": str(chain / "aug.ndjson")}
    out = tmp_path / "f.ndjson"
    assert main(["transform", "--data", str(chain / "data.ndjson"), "--out", str(out),
                 "--no-shapelet-features"]) == 0
    man = json.loads((tmp_path / "f.ndjson.manifest.json").read_text())
    assert man["inputs"] == {"data": str(chain / "data.ndjson"), "pool": ""}
    assert man["outputs"] == {"features": str(out)}


def _count_lines(path):
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def test_run_all_ablation_flags(tmp_path, capsys):
    base = ["run-all", "--n", "24", "--t", "40", "--proportions", PROPS,
            "--train-fraction", "0.75"] + TINY
    assert main(base + ["--out-dir", str(tmp_path / "s"), "--no-augment"]) == 0
    assert main(base + ["--out-dir", str(tmp_path / "sa"),
                        "--no-shapelet-features"]) == 0
    assert main(base + ["--out-dir", str(tmp_path / "base"), "--no-augment",
                        "--no-shapelet-features"]) == 0
    s_man = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert s_man["config"]["use_augment"] is False
    assert "train_aug" not in s_man["outputs"]
    # statistics-only variant has no pool at all
    base_man = json.loads((tmp_path / "base" / "manifest.json").read_text())
    assert "pool" not in base_man["outputs"]
    # so its checkpoint scores without one, and explain has no evidence to give
    base = tmp_path / "base"
    assert json.loads((base / "checkpoint.json").read_text())["pool"] is None
    score = ["--data", str(base / "val.ndjson"), "--checkpoint", str(base / "checkpoint.json")]
    assert main(["evaluate", *score, "--out", str(tmp_path / "m.json")]) == 0
    assert main(["explain", *score, "--out", str(tmp_path / "r.json")]) == 2
    assert "explain needs a shapelet pool" in capsys.readouterr().err
    # an ablated stage is not timed
    assert _stage_keys(tmp_path / "s" / "manifest.json") == RUN_ALL_STAGES - {"augment"}
    assert _stage_keys(tmp_path / "sa" / "manifest.json") == RUN_ALL_STAGES
    assert (_stage_keys(tmp_path / "base" / "manifest.json")
            == RUN_ALL_STAGES - {"augment", "discover"})


def test_channel_subset_restricts_pool(tmp_path):
    data, pool = tmp_path / "d.ndjson", tmp_path / "p.json"
    assert main(_synth_args(data, n=16)) == 0
    rc = main(["discover", "--data", str(data), "--out", str(pool),
               "--channels", "0,1"] + TINY[:2] + ["--k", "5", "--g", "4"])
    assert rc == 0
    doc = json.loads(pool.read_text())
    assert {s["channel"] for s in doc["shapelets"]} <= {0, 1}


def test_transform_and_augment_keep_the_channel_subset(tmp_path):
    data, pool = tmp_path / "d.ndjson", tmp_path / "p.json"
    aug, feats = tmp_path / "a.ndjson", tmp_path / "f.ndjson"
    subset = TINY + ["--channels", "2,3"]
    assert main(_synth_args(data, n=16)) == 0
    assert main(["discover", "--data", str(data), "--out", str(pool)] + subset) == 0
    assert main(["augment", "--data", str(data), "--pool", str(pool),
                 "--out", str(aug)] + subset) == 0
    assert load_dataset(aug).n_channels == 2
    assert main(["transform", "--data", str(data), "--pool", str(pool),
                 "--out", str(feats)] + subset) == 0
    z, _, _ = load_features(feats)
    assert z.shape[1] == len(load_pool(pool)) + 2 * 2    # depth-2 statistics of 2 channels


def _pool_on_channels_2_3(tmp_path):
    """A 4-channel data file and a pool discovered on its channels 2 and 3."""
    data, pool = tmp_path / "d.ndjson", tmp_path / "p.json"
    assert main(["synth", "--out", str(data), "--n", "24", "--t", "40", "--seed", "3"]) == 0
    assert main(["discover", "--data", str(data), "--out", str(pool),
                 "--channels", "2,3", "--k", "5", "--g", "8"]) == 0
    return data, pool


def test_transform_and_augment_take_the_channel_subset_from_the_pool(tmp_path):
    data, pool = _pool_on_channels_2_3(tmp_path)

    def outputs(tag, flags):
        feats, aug = tmp_path / f"f-{tag}.ndjson", tmp_path / f"a-{tag}.ndjson"
        assert main(["transform", "--data", str(data), "--pool", str(pool),
                     "--out", str(feats)] + flags) == 0
        assert main(["augment", "--data", str(data), "--pool", str(pool),
                     "--out", str(aug)] + flags) == 0
        return feats, aug

    taken = outputs("pool", [])
    for mine, given in zip(taken, outputs("flags", ["--channels", "2,3"])):
        assert mine.read_bytes() == given.read_bytes()
    z, _, _ = load_features(taken[0])
    assert z.shape == (24, len(load_pool(pool)) + 2 * 2)
    assert load_dataset(taken[1]).n_channels == 2


@pytest.mark.parametrize("cmd", ["transform", "augment"])
def test_a_channel_subset_other_than_the_pool_s_exits_two(tmp_path, capsys, cmd):
    data, pool = _pool_on_channels_2_3(tmp_path)
    capsys.readouterr()
    assert main([cmd, "--data", str(data), "--pool", str(pool),
                 "--out", str(tmp_path / "out"), "--channels", "0,1"]) == 2
    assert str(pool) in capsys.readouterr().err


def test_train_takes_the_channel_subset_from_the_pool(tmp_path, capsys):
    """A checkpoint trained on a pool's features scores on the pool's
    channels, with no --channels given after discover."""
    data, pool = _pool_on_channels_2_3(tmp_path)
    feats, ckpt = tmp_path / "f.ndjson", tmp_path / "c.json"
    assert main(["transform", "--data", str(data), "--pool", str(pool), "--out", str(feats)]) == 0
    train = ["train", "--train-features", str(feats), "--val-features", str(feats),
             "--pool", str(pool), "--out", str(ckpt)]
    assert main(train) == 0
    assert load_checkpoint(ckpt).config.channel_subset == (2, 3)
    assert main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    assert main(train + ["--channels", "0,1"]) == 2
    assert str(pool) in capsys.readouterr().err


def test_library_calls_apply_the_channel_subset_as_the_cli_does(tmp_path):
    """On full-channel data, `discover`, `balance_dataset` and
    `build_explain_report` given a channel-subset config or checkpoint
    return what the CLI writes for the same inputs."""
    data, pool = _pool_on_channels_2_3(tmp_path)
    ds, cli_pool = load_dataset(data), load_pool(pool)
    config = Config(k=5, g=8, channel_subset=(2, 3))
    assert pool_digest(discovery.discover(ds, config)) == pool_digest(cli_pool)

    aug = tmp_path / "a.ndjson"
    assert main(["augment", "--data", str(data), "--pool", str(pool), "--out", str(aug)]) == 0
    save_dataset(tmp_path / "mine.ndjson", balance_dataset(ds, cli_pool, config))
    assert (tmp_path / "mine.ndjson").read_bytes() == aug.read_bytes()

    feats, ckpt, report = tmp_path / "f.ndjson", tmp_path / "c.json", tmp_path / "r.json"
    assert main(["transform", "--data", str(data), "--pool", str(pool), "--out", str(feats)]) == 0
    assert main(["train", "--train-features", str(feats), "--val-features", str(feats),
                 "--pool", str(pool), "--out", str(ckpt)]) == 0
    assert main(["explain", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(report), "--all-classes"]) == 0
    mine = build_explain_report(ds, load_checkpoint(ckpt), all_classes=True)
    assert json.loads(json.dumps(mine)) == json.loads(report.read_text())


def test_discovery_counters_go_to_the_manifest_only(chain, tmp_path):
    keys = {"candidates", "groups", "pruned", "matmuls", "matmuls_skipped", "bound_checks",
            "probe_offset", "rescanned", "margin"}
    man = json.loads((chain / "pool.json.manifest.json").read_text())
    assert set(man["counters"]["discover"]) == keys
    assert type(man["counters"]["discover"]["probe_offset"]) is int
    assert set(man["counters"]["discover"]["pruned"]) == {"NP", "AC", "DT", "IE"}
    for margin in man["counters"]["discover"]["margin"].values():
        assert set(margin) == {"quota_gain", "best_outside"}
        if None not in margin.values():
            assert margin["best_outside"] <= margin["quota_gain"]
    assert "counters" not in json.loads((chain / "metrics.json.manifest.json").read_text())
    for name in ("pool.json", "ckpt.json", "metrics.json"):
        assert "matmuls" not in (chain / name).read_text()


def test_main_builds_the_parser_once_and_dispatches_by_name(tmp_path, monkeypatch):
    assert main(["--version"]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    monkeypatch.setattr(cli, "cmd_synth", lambda args, run: 7)
    assert main(["synth", "--out", str(tmp_path / "d.ndjson")]) == 7


def test_tune_k_cli(tmp_path):
    data = tmp_path / "d.ndjson"
    out = tmp_path / "tuning.json"
    assert main(["synth", "--out", str(data), "--n", "20", "--t", "30",
                 "--proportions", PROPS, "--seed", "4"]) == 0
    rc = main(["tune-k", "--data", str(data), "--out", str(out),
               "--folds", "2", "--g", "8", "--seed", "4"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["best_k"] == 3
    assert set(doc["scores"]) == {"3"}
    assert _stage_keys(tmp_path / "tuning.json.manifest.json") == {"tune_k"}
    assert _peak_rss_mib(tmp_path / "tuning.json.manifest.json") > 0


def test_tune_k_manifest_names_the_chosen_k_and_keeps_every_fit_s_counters(tmp_path):
    """A --config k is overridden by the grid: the manifest records the k
    the search recommends, and the counters of each (k, fold) fit."""
    data, config = tmp_path / "d.ndjson", tmp_path / "k7.json"
    assert main(["synth", "--out", str(data), "--n", "40", "--t", "40", "--seed", "4",
                 "--proportions", PROPS_BALANCED]) == 0
    config.write_text(json.dumps({"k": 7}))
    tune = ["tune-k", "--data", str(data), "--folds", "2", "--g", "8", "--seed", "4"]
    assert main(tune + ["--out", str(tmp_path / "t7.json"), "--config", str(config)]) == 0
    assert main(tune + ["--out", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "t7.json").read_bytes() == (tmp_path / "t.json").read_bytes()
    best_k = json.loads((tmp_path / "t7.json").read_text())["best_k"]
    for name in ("t7.json", "t.json"):
        man = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        cfg = Config.from_dict(man["config"])
        assert cfg.k == best_k
        assert man["config_hash"] == config_hash(cfg)
        fits = man["counters"]["tune_k"]["fits"]
        assert [(f["k"], f["fold"]) for f in fits] == [(3, 0), (3, 1), (4, 0), (4, 1)]
        for f in fits:
            assert set(f) == {"k", "fold", "discover", "augment", "train"}
            assert f["discover"]["candidates"] > 0 and f["train"]["epochs"] > 0


def _readme_commands():
    """Every ``pvashape ...`` line of README's ``sh`` blocks, continuation
    lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pvashape "):
                yield line


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert len(commands) >= 9
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "pvashape" in capsys.readouterr().out
