import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from mllgraph import cli, trainer
from mllgraph.cli import (
    ConfigError,
    apply_set,
    build_parser,
    default_run_config,
    main,
    merge_config,
    resolve_config,
)
from mllgraph.corpus import LabelVocabulary, load_dataset, synthetic_vocabulary
from mllgraph.artifacts import write_score_csv
from mllgraph.layers import LabelGraph
from mllgraph.metrics import METRIC_KEYS, ScoreTable, compute_report, format_report_json
from mllgraph.trainer import LinearHead, load_checkpoint

import cli_fuzz
from test_trainer import (
    LINEAR_GCN_LAYERS,
    header_edits,
    read_header,
    with_header,
    with_shapes,
    with_tensors,
    with_value,
)

SMALL_SETS = [
    "--set", "synthetic.n_samples=120",
    "--set", "synthetic.sp_count=3",
    "--set", "synthetic.as_count=6",
    "--set", "synthetic.feature_dim=16",
    "--set", "synthetic.noise_sigma=1.0",
    "--set", "synthetic.samples_per_subject=5",
    "--set", "glove.d=8",
    "--set", "glove.epochs=30",
    "--set", "train.epochs=3",
    "--set", "train.batch_size=16",
    "--set", "encoder.layer_widths=[8,16]",
    "--set", "kmeans.n_clusters=4",
]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "synth"), *SMALL_SETS]) == 0
    assert main(["train", "--out", str(root / "crc"), *SMALL_SETS]) == 0
    assert main([
        "train", "--out", str(root / "single"), "--variant", "Single-MLL", *SMALL_SETS,
    ]) == 0
    assert main([
        "eval",
        "--checkpoint", str(root / "crc" / "checkpoint.mllg"),
        "--data", str(root / "synth" / "dataset.jsonl"),
        "--out", str(root / "eval"),
    ]) == 0
    return root


def test_default_config_covers_every_section():
    cfg = default_run_config()
    assert cfg["variant"] == "MLL-GCN-CRC"
    for key in ("seed", "out_dir", "data", "synthetic", "weighting", "adjacency",
                "glove", "encoder", "loss", "train", "kmeans", "metrics"):
        assert key in cfg


def test_merge_config_rejects_unknown_keys():
    cfg = default_run_config()
    merged = merge_config(cfg, {"train": {"epochs": 5}})
    assert merged["train"]["epochs"] == 5
    assert cfg["train"]["epochs"] == default_run_config()["train"]["epochs"]
    with pytest.raises(ConfigError, match="unknown config key: optimizer"):
        merge_config(cfg, {"optimizer": "adam"})
    with pytest.raises(ConfigError, match="unknown config key: train.lr"):
        merge_config(cfg, {"train": {"lr": 0.1}})


def test_apply_set_parses_json_values():
    cfg = default_run_config()
    apply_set(cfg, "train.epochs=7")
    apply_set(cfg, "encoder.layer_widths=[4,8]")
    apply_set(cfg, "data.dataset_path=corpus.jsonl")
    assert cfg["train"]["epochs"] == 7
    assert cfg["encoder"]["layer_widths"] == [4, 8]
    assert cfg["data"]["dataset_path"] == "corpus.jsonl"
    with pytest.raises(ConfigError, match="key=value"):
        apply_set(cfg, "train.epochs")
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_set(cfg, "train.warmup=1")
    with pytest.raises(ConfigError, match="^unknown config key: optimizer$"):
        apply_set(cfg, "optimizer.lr=1")


def test_the_config_layers_merge_in_order(tmp_path):
    """The defaults, then the --config file, then each --set in order, then the flags."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"variant": "MLL-CRC", "seed": 7, "out_dir": "file",
                                "train": {"epochs": 5, "batch_size": 8}}), encoding="utf-8")
    layers = ["train", "--config", str(path), "--set", "variant=MLL-CL", "--set", "seed=9",
              "--set", "train.epochs=6", "--set", "train.epochs=7"]
    flags = ["--variant", "MLL-GCN", "--seed", "3", "--out", "flag"]
    for args, want in ((layers[:3], ("MLL-CRC", 7, "file", 5)), (layers, ("MLL-CL", 9, "file", 7)),
                       (layers + flags, ("MLL-GCN", 3, "flag", 7))):
        cfg = resolve_config(build_parser().parse_args(args)).cfg
        assert (cfg["variant"], cfg["seed"], cfg["out_dir"], cfg["train"]["epochs"]) == want, args
        assert cfg["train"] == dict(default_run_config()["train"], epochs=want[3], batch_size=8), args


def test_a_flag_that_is_given_is_applied_even_when_empty(tmp_path, capsys, monkeypatch):
    """An empty --variant or --config is refused like any other bad value, not dropped, and a
    missing config file is a config error; nothing is written."""
    monkeypatch.chdir(tmp_path)
    for args, message in (
        (["train", "--variant", ""], "error: unknown variant ''; expected one of Single-MLL"),
        (["synth", "--config", ""], "error: cannot read config file: "),
        (["train", "--config", ""], "error: cannot read config file: "),
        (["synth", "--config", "missing.json"], "error: cannot read config file: "),
    ):
        assert main([*args, "--out", "x"]) == 2, args
        assert capsys.readouterr().err.startswith(message), args
    assert list(tmp_path.iterdir()) == []


def test_a_set_path_fails_as_a_config_file_of_its_nesting_does(tmp_path, capsys):
    out = str(tmp_path / "x")
    path = tmp_path / "nested.json"
    for expr, nested, message in (
        ("optimizer.lr=1", {"optimizer": {"lr": 1}}, "unknown config key: optimizer"),
        ("train.lr=1", {"train": {"lr": 1}}, "unknown config key: train.lr"),
        ("train.epochs.x=1", {"train": {"epochs": {"x": 1}}},
         "train config: train.epochs: expected an integer, got dict"),
        ("train=3", {"train": 3}, "train: expected an object, got int"),
    ):
        path.write_text(json.dumps(nested), encoding="utf-8")
        assert main(["train", "--out", out, "--set", expr]) == 2, expr
        assert capsys.readouterr().err == f"error: {message}\n", expr
        assert main(["train", "--out", out, "--config", str(path)]) == 2, expr
        assert capsys.readouterr().err == f"error: {message}\n", expr
    assert not (tmp_path / "x").exists()


def test_synth_writes_loadable_corpus(work):
    out = work / "synth"
    for name in ("dataset.jsonl", "vocabulary.json", "config.json"):
        assert (out / name).exists(), name
    vocab = LabelVocabulary.load(out / "vocabulary.json")
    assert vocab.size == 9
    data = load_dataset(out / "dataset.jsonl", vocab)
    assert len(data) == 120
    snapshot = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert snapshot["synthetic"]["n_samples"] == 120


def test_synth_rerun_is_byte_identical(work, tmp_path):
    again = tmp_path / "synth2"
    assert main(["synth", "--out", str(again), *SMALL_SETS]) == 0
    a = (work / "synth" / "dataset.jsonl").read_bytes()
    b = (again / "dataset.jsonl").read_bytes()
    assert a == b
    va = (work / "synth" / "vocabulary.json").read_bytes()
    vb = (again / "vocabulary.json").read_bytes()
    assert va == vb


def test_synth_corpus_bytes_are_pinned(tmp_path):
    # sha256 of the corpus as the per-sample writer produced it; 600 samples
    # span several blocks of the synthetic noise draw
    out = tmp_path / "pinned"
    assert main(["synth", "--seed", "0", "--out", str(out), *SMALL_SETS,
                 "--set", "synthetic.n_samples=600"]) == 0
    digest = hashlib.sha256((out / "dataset.jsonl").read_bytes()).hexdigest()
    assert digest == "dfc9beefaac855c85e4d9588de49f01cf447cb49f00a5928502a8a049e0ba894"


def test_train_and_eval_reject_integer_beyond_float_range(work, tmp_path, capsys):
    lines = (work / "synth" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[4])
    lines[4] = json.dumps(rec).replace(repr(rec["features"][0]), "1" + "0" * 400, 1)
    data = tmp_path / "huge.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([
        "train", "--out", str(tmp_path / "t"), *SMALL_SETS,
        "--set", f"data.dataset_path={data}",
        "--set", f"data.vocabulary_path={work / 'synth' / 'vocabulary.json'}",
    ]) == 1
    assert "error: line 5: feature value too large for a float" in capsys.readouterr().err
    assert main([
        "eval", "--checkpoint", str(work / "crc" / "checkpoint.mllg"),
        "--data", str(data), "--out", str(tmp_path / "e"),
    ]) == 1
    assert "error: line 5: feature value too large for a float" in capsys.readouterr().err


def test_train_and_eval_refuse_text_the_csv_files_cannot_encode(work, tmp_path, capsys):
    """A corpus byte that is not UTF-8, and a sample id or label name holding a lone surrogate
    (which JSON can escape, but UTF-8 cannot encode), are refused as they are read: the command
    exits 1 and makes no output directory."""
    synth = work / "synth"
    lines = (synth / "dataset.jsonl").read_bytes().splitlines(keepends=True)
    undecodable = tmp_path / "undecodable.jsonl"
    undecodable.write_bytes(b"".join(lines[:4] + [b"\xff" + lines[4]] + lines[5:]))
    surrogate = tmp_path / "surrogate.jsonl"
    lines[4] = (json.dumps(dict(json.loads(lines[4]), id="img\udcff")) + "\n").encode("ascii")
    surrogate.write_bytes(b"".join(lines))
    vocab = json.loads((synth / "vocabulary.json").read_text(encoding="utf-8"))
    vocab[1]["name"] = "L\udcffAP"
    bad_vocab = tmp_path / "vocabulary.json"
    bad_vocab.write_text(json.dumps(vocab), encoding="utf-8")
    checkpoint = str(work / "crc" / "checkpoint.mllg")
    out = tmp_path / "out"
    for args, message in (
        (["eval", "--checkpoint", checkpoint, "--data", str(undecodable)], "line 5: not UTF-8 text"),
        (["eval", "--checkpoint", checkpoint, "--data", str(surrogate)],
         "line 5: sample id 'img\\udcff' holds a lone surrogate (U+D800 to U+DFFF), "
         "which the CSV artifacts cannot carry"),
        (["train", *SMALL_SETS, "--set", f"data.dataset_path={synth / 'dataset.jsonl'}",
          "--set", f"data.vocabulary_path={bad_vocab}"],
         "vocabulary entry 1: label name 'L\\udcffAP' holds a lone surrogate (U+D800 to U+DFFF), "
         "which the CSV artifacts cannot carry"),
    ):
        assert main([*args, "--out", str(out)]) == 1, args[0]
        assert capsys.readouterr().err == f"error: {message}\n", args[0]
        assert not out.exists(), args[0]


def test_train_and_eval_reject_names_and_ids_the_csv_files_cannot_carry(work, tmp_path, capsys):
    synth = work / "synth"
    vocab = json.loads((synth / "vocabulary.json").read_text(encoding="utf-8"))
    vocab[1]["name"] = "L,AP"
    bad_vocab = tmp_path / "vocabulary.json"
    bad_vocab.write_text(json.dumps(vocab), encoding="utf-8")
    capsys.readouterr()
    assert main([
        "train", "--out", str(tmp_path / "t"), *SMALL_SETS,
        "--set", f"data.dataset_path={synth / 'dataset.jsonl'}",
        "--set", f"data.vocabulary_path={bad_vocab}",
    ]) == 1
    assert "error: vocabulary entry 1: label name 'L,AP' holds a comma" in capsys.readouterr().err
    lines = (synth / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[4])
    lines[4] = json.dumps(dict(rec, id="img,7"))
    data = tmp_path / "ids.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([
        "train", "--out", str(tmp_path / "t"), *SMALL_SETS,
        "--set", f"data.dataset_path={data}",
        "--set", f"data.vocabulary_path={synth / 'vocabulary.json'}",
    ]) == 1
    assert "error: line 5: sample id 'img,7' holds a comma" in capsys.readouterr().err
    assert main([
        "eval", "--checkpoint", str(work / "crc" / "checkpoint.mllg"),
        "--data", str(data), "--out", str(tmp_path / "e"),
    ]) == 1
    assert "error: line 5: sample id 'img,7' holds a comma" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
    assert main(["synth", "--out", str(tmp_path / "x"), "--set", "synthetic.rho=1"]) == 2
    assert main(["synth", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.endswith("error: train config: seed must be nonnegative\n")
    assert main(["train", "--out", str(tmp_path / "x"), "--variant", "MLL-MEGA"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "x"), "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"optimizer": "adam"}', encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "x"), "--config", str(unknown)]) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "x"), "--config", str(listy)]) == 2
    capsys.readouterr()
    # a config file nested too deep for the parser, or with an integer past
    # Python's digit limit, is a config error too
    for name, text in (("deep", "[" * 100_000), ("digits", '{"seed": 1' + "0" * 5000 + "}")):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["synth", "--out", str(tmp_path / "x"), "--config", str(path)]) == 2, name
        assert "error: config file is not valid JSON: " in capsys.readouterr().err, name
    # a --set value that does not parse stays a string, which the typed check refuses
    assert main(["synth", "--out", str(tmp_path / "x"), "--set", "seed=1" + "0" * 5000]) == 2
    assert "error: train config: seed: expected an integer, got str" in capsys.readouterr().err
    # a NaN probability is not within [0, 1]
    assert main(["synth", "--out", str(tmp_path / "x"), "--set", "synthetic.sp_count=2",
                 "--set", "synthetic.as_count=3", "--set", "synthetic.background_profile=[NaN,NaN,NaN]"]) == 2
    assert "background_profile entries must be probabilities within [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # a number in place of a section, and a wrongly typed value, name the key
    section = tmp_path / "section.json"
    section.write_text('{"train": 3}', encoding="utf-8")
    assert main(["train", "--out", str(tmp_path / "x"), "--config", str(section)]) == 2
    assert "error: train: expected an object, got int" in capsys.readouterr().err
    for expr, message in (
        ("synthetic=5", "synthetic: expected an object, got int"),
        ("train=3", "train: expected an object, got int"),
        ("data=1", "data: expected an object, got int"),
        ("metrics=1", "metrics: expected an object, got int"),
        ("train.epochs=1.5", "epochs: expected an integer, got float"),
        ("train.epochs=true", "epochs: expected an integer, got bool"),
        ("train.batch_size=2.5", "batch_size: expected an integer, got float"),
        ("train.learning_rate=\"0.1\"", "learning_rate: expected a number, got str"),
        ("glove.d=4.0", "glove.d: expected an integer, got float"),
        ("kmeans.n_clusters=2.0", "n_clusters: expected an integer, got float"),
        ("synthetic.n_samples=250.5", "synthetic: n_samples: expected an integer, got float"),
        ("encoder.layer_widths=[8.7,16]", "encoder.layer_widths: expected a list of integers, got [8.7, 16]"),
        ("encoder.layer_widths=[8,true]", "encoder.layer_widths: expected a list of integers, got [8, true]"),
        ("encoder.layer_widths=16", "encoder.layer_widths: expected a list of integers, got 16"),
        ("metrics.threshold=true", "metrics.threshold: must lie within [0, 1]"),
        ("metrics.threshold=1" + "0" * 400, "metrics.threshold: must lie within [0, 1]"),
        ("seed=true", "train config: seed: expected an integer, got bool"),
        # non-finite numbers and bool ratios stop at the boundary, not in training
        ("kmeans.tol=NaN", "train config: kmeans.tol: expected a finite number, got NaN"),
        ("loss.alpha=NaN", "loss.alpha: expected a finite number, got NaN"),
        ("glove.learning_rate=Infinity", "glove.learning_rate: expected a finite number, got Infinity"),
        ("train.momentum=-Infinity", "momentum: expected a finite number, got -Infinity"),
        ("loss.beta=1" + "0" * 400, "loss.beta: expected a finite number, got 1000000000"),
        ("synthetic.noise_sigma=NaN", "synthetic: noise_sigma: expected a finite number, got NaN"),
        ("data.split_ratios=[NaN,0.5,0.5]", "data.split_ratios: need three nonnegative numbers"),
        ("data.split_ratios=[Infinity,0,0]", "data.split_ratios: need three nonnegative numbers"),
        ("data.split_ratios=[true,false,false]", "data.split_ratios: need three nonnegative numbers"),
    ):
        assert main(["train", "--out", str(tmp_path / "x"), "--set", expr]) == 2, expr
        assert message in capsys.readouterr().err, expr
    # a bool is not an integer seed for synth either, nor is NaN a noise level,
    # and nothing is written
    assert main(["synth", "--out", str(tmp_path / "s"), "--set", "seed=true"]) == 2
    assert "error: train config: seed: expected an integer, got bool" in capsys.readouterr().err
    assert main(["synth", "--out", str(tmp_path / "s"), "--set", "synthetic.noise_sigma=NaN"]) == 2
    assert "error: synthetic: noise_sigma: expected a finite number, got NaN" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    # the output directory and the corpus paths must be strings (a path may be null)
    out = str(tmp_path / "s")
    for args, message in (
        (["synth", "--set", "out_dir=5"], "out_dir: expected a string, got 5"),
        (["synth", "--set", "out_dir=null"], "out_dir: expected a string, got null"),
        (["train", "--set", "out_dir=[1]"], "out_dir: expected a string, got [1]"),
        (["train", "--out", out, "--set", "data.dataset_path=5", "--set", "data.vocabulary_path=7"],
         "data.dataset_path: expected a string or null, got 5"),
        (["train", "--out", out, "--set", f"data.dataset_path={out}.jsonl", "--set", "data.vocabulary_path=7"],
         "data.vocabulary_path: expected a string or null, got 7"),
        (["synth", "--out", out, "--set", "data.vocabulary_path=false"],
         "data.vocabulary_path: expected a string or null, got false"),
    ):
        assert main(args) == 2, args
        assert capsys.readouterr().err == f"error: {message}\n", args
    assert not (tmp_path / "s").exists()
    # train writes nothing when the corpus it would build or read is refused
    for expr, message in (
        ("synthetic.n_samples=0", "n_samples must be positive"),
        ("synthetic.structure_profile=5", "structure_profile must have shape"),
        (f"data.dataset_path={tmp_path / 'bad.json'}", "data.vocabulary_path: required"),
    ):
        assert main(["train", "--out", out, "--set", expr]) == 2, expr
        assert message in capsys.readouterr().err, expr
        assert not (tmp_path / "s").exists(), expr
    # an empty output directory is refused, not taken as the working directory
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for args in (["synth", "--set", "out_dir="], ["synth", "--out", ""], ["train", "--set", "out_dir="]):
        assert main(args) == 2, args
        assert capsys.readouterr().err == "error: out_dir: must not be empty\n", args
    # eval and export refuse it too, before the (here missing) checkpoint is read
    missing = str(tmp_path / "missing.mllg")
    for args in (["eval", "--checkpoint", missing, "--data", str(tmp_path / "missing.jsonl"), "--out", ""],
                 ["export", "--checkpoint", missing, "--what", "embeddings", "--out", ""]):
        assert main(args) == 2, args
        assert capsys.readouterr().err == "error: --out: must not be empty\n", args
    assert list(cwd.iterdir()) == []


def test_synth_and_train_check_every_section_so_each_snapshot_reruns(work, tmp_path, capsys):
    """synth checks the sections only train reads, and train on a data file checks `synthetic`:
    a config.json either writes is one that `train --config` runs."""
    out = tmp_path / "x"
    corpus = ["--set", f"data.dataset_path={work / 'synth' / 'dataset.jsonl'}",
              "--set", f"data.vocabulary_path={work / 'synth' / 'vocabulary.json'}"]
    for args, message in (
        (["synth", "--set", "train.epochs=0"], "train config: train.epochs must be positive"),
        (["synth", "--set", "variant=nope"], "unknown variant 'nope'; expected one of "),
        (["synth", "--set", "metrics.sp_mode=bogus"], "metrics.sp_mode: must be 'exact' or 'argmax'"),
        (["synth", "--set", "data.split_ratios=[2,2]"],
         "data.split_ratios: need three nonnegative numbers summing to 1"),
        (["synth", "--set", "data.dataset_path=x.jsonl"],
         "data.vocabulary_path: required when data.dataset_path is set"),
        (["train", *corpus, "--set", "synthetic.n_samples=-5"], "synthetic: n_samples must be positive"),
    ):
        assert main([*args, "--out", str(out)]) == 2, args
        assert capsys.readouterr().err.startswith(f"error: {message}"), args
        assert not out.exists(), args
    assert main(["train", "--config", str(work / "synth" / "config.json"), "--out", str(out)]) == 0


def test_train_and_kmeans_errors_name_the_run_config_key(tmp_path, capsys):
    """The `train` and `kmeans` sections fill TrainConfig fields; an error names the key as written."""
    for expr, message in (
        ("kmeans.tol=NaN", "kmeans.tol: expected a finite number, got NaN"),
        ("kmeans.max_iter=0", "kmeans.max_iter must be positive"),
        ("kmeans.n_clusters=2.0", "kmeans.n_clusters: expected an integer, got float"),
        ("train.epochs=0", "train.epochs must be positive"),
        ("train.momentum=1", "train.momentum must lie within [0, 1)"),
        ("loss.alpha=-1", "loss.alpha must be nonnegative"),  # a nested section names its own path
        # past half the largest float the init's uniform(-s, s) has no finite width
        ("glove.init_scale=1e308", "glove.init_scale must be positive and at most half the largest float"),
    ):
        assert main(["train", "--out", str(tmp_path / "x"), "--set", expr]) == 2, expr
        assert capsys.readouterr().err == f"error: train config: {message}\n", expr
        assert not (tmp_path / "x").exists(), expr


def test_a_vocabulary_without_a_plane_class_is_refused_before_any_work(work, tmp_path, capsys):
    """SP_ACC scores the plane columns: train, eval and metrics-oracle --vocabulary refuse an
    all-AS vocabulary with exit 1, having written nothing."""
    (tmp_path / "vocabulary.json").write_text(
        json.dumps([{"name": f"s{j}", "kind": "AS"} for j in range(4)]), encoding="utf-8")
    (tmp_path / "dataset.jsonl").write_text("".join(
        json.dumps({"id": f"i{k}", "subject_id": f"p{k // 2}", "features": [float(k), 1.0],
                    "labels": [f"s{k % 4}"]}) + "\n" for k in range(40)), encoding="utf-8")
    raw = (work / "crc" / "checkpoint.mllg").read_bytes()
    header = read_header(raw)
    no_plane = tmp_path / "no_plane.mllg"
    no_plane.write_bytes(with_header(raw, dict(header, vocabulary=[dict(e, kind="AS") for e in header["vocabulary"]])))
    out = tmp_path / "out"
    for args in (
        ["train", *SMALL_SETS, "--variant", "MLL-GCN", "--set", f"data.dataset_path={tmp_path / 'dataset.jsonl'}",
         "--set", f"data.vocabulary_path={tmp_path / 'vocabulary.json'}", "--out", str(out)],
        ["eval", "--checkpoint", str(no_plane), "--data", str(work / "synth" / "dataset.jsonl"), "--out", str(out)],
        ["metrics-oracle", "--scores", str(work / "eval" / "scores.csv"), "--report",
         str(work / "eval" / "metrics.json"), "--vocabulary", str(tmp_path / "vocabulary.json")],
    ):
        assert main(args) == 1, args[0]
        assert "vocabulary needs at least one SP class" in capsys.readouterr().err, args[0]
        assert not out.exists(), args[0]


def test_train_requires_vocabulary_with_external_data(tmp_path):
    code = main([
        "train", "--out", str(tmp_path / "x"),
        "--set", "data.dataset_path=corpus.jsonl",
        *SMALL_SETS,
    ])
    assert code == 2


def test_train_writes_full_artifact_set(work):
    out = work / "crc"
    expected = (
        "checkpoint.mllg", "config.json", "vocabulary.json", "cooccurrence.csv",
        "correlation.csv", "embeddings.csv", "glove_trace.csv", "trace.csv",
        "sample_clusters.csv", "centroids.csv", "metrics_val.json",
        "metrics_test.json", "scores_val.csv", "scores_test.csv",
    )
    for name in expected:
        assert (out / name).exists(), name
    report = json.loads((out / "metrics_val.json").read_text(encoding="utf-8"))
    assert tuple(report.keys()) == METRIC_KEYS
    trace_lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace_lines[0] == "epoch,train_loss,val_exact_match"
    assert len(trace_lines) == 4
    cp = load_checkpoint(out / "checkpoint.mllg")
    assert cp.variant.name == "MLL-GCN-CRC"


def test_plain_variant_skips_graph_artifacts(work):
    out = work / "single"
    assert not (out / "correlation.csv").exists()
    assert not (out / "sample_clusters.csv").exists()
    assert not (out / "centroids.csv").exists()
    cp = load_checkpoint(out / "checkpoint.mllg")
    assert isinstance(cp.head, LinearHead)


def test_train_rerun_is_byte_identical(work, tmp_path):
    again = tmp_path / "crc2"
    assert main(["train", "--out", str(again), *SMALL_SETS]) == 0
    for name in ("checkpoint.mllg", "metrics_test.json", "scores_test.csv", "trace.csv"):
        assert (work / "crc" / name).read_bytes() == (again / name).read_bytes(), name


def test_train_refuses_a_variant_or_cluster_count_it_cannot_run_before_writing(tmp_path, capsys):
    out = tmp_path / "x"
    for args, message in (
        (["--set", 'variant=["x"]'], "error: unknown variant ['x']; expected one of Single-MLL"),
        (["--set", "variant=7"], "error: unknown variant 7; expected one of Single-MLL"),
        # the 9-class corpus gives k-means 9 label embeddings to group
        (["--variant", "MLL-CRC", "--set", "kmeans.n_clusters=10"],
         "error: kmeans.n_clusters: 10 exceeds the 9 classes k-means groups"),
        (["--variant", "MLL-GCN-CRC", "--set", "kmeans.n_clusters=50"],
         "error: kmeans.n_clusters: 50 exceeds the 9 classes k-means groups"),
    ):
        assert main(["train", "--out", str(out), *SMALL_SETS, *args]) == 2, args
        assert capsys.readouterr().err.startswith(message), args
        assert not out.exists(), args
    # a variant without cluster relabeling runs no k-means, whatever its cluster count
    assert main(["train", "--out", str(out), *SMALL_SETS, "--variant", "MLL-GCN-CL",
                 "--set", "kmeans.n_clusters=50"]) == 0


def test_train_with_an_empty_test_split_writes_the_val_report_only(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["train", "--out", str(out), *SMALL_SETS, "--set", "data.split_ratios=[0.5,0.5,0]"]) == 0
    assert (out / "metrics_val.json").exists() and (out / "scores_val.csv").exists()
    assert not (out / "metrics_test.json").exists() and not (out / "scores_test.csv").exists()
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].endswith(" / test 0")
    assert [line.split(":")[0] for line in printed[2:-2]] == ["val"]


def test_train_builds_one_label_graph_for_scoring(work, tmp_path, monkeypatch):
    """The GCN head builds B-hat's LabelGraph once: a train trains and scores val and test
    with the one run_pipeline builds, and an eval scores with the one its checkpoint builds."""
    built = []

    def counting_graph(B):
        built.append(B)
        return LabelGraph(B)

    monkeypatch.setattr(trainer, "LabelGraph", counting_graph)
    assert main(["train", "--out", str(tmp_path / "crc"), *SMALL_SETS]) == 0
    assert len(built) == 1
    built.clear()
    assert main([
        "eval", "--checkpoint", str(tmp_path / "crc" / "checkpoint.mllg"),
        "--data", str(work / "synth" / "dataset.jsonl"), "--out", str(tmp_path / "eval"),
    ]) == 0
    assert len(built) == 1


def test_train_and_eval_that_fail_leave_no_output_directory(work, tmp_path, capsys):
    """A train or eval that fails while it trains or scores exits 1 and has made no directory."""
    narrow = tmp_path / "narrow"
    assert main(["synth", "--out", str(narrow), *SMALL_SETS, "--set", "synthetic.feature_dim=8"]) == 0
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    checkpoint = str(work / "crc" / "checkpoint.mllg")
    out = tmp_path / "out"
    for args, message in (
        (["eval", "--checkpoint", checkpoint, "--data", str(tmp_path / "empty.jsonl")],
         "error: cannot score an empty dataset\n"),
        (["eval", "--checkpoint", checkpoint, "--data", str(narrow / "dataset.jsonl")],
         "error: feature length 8 != encoder input 16\n"),
        (["train", *SMALL_SETS, "--set", "data.split_ratios=[1,0,0]"],
         "error: train and val must be nonempty\n"),
        (["train", *SMALL_SETS, "--set", "train.learning_rate=1e200"],
         "error: loss became non-finite at epoch 1, batch 2\n"),
        (["train", *SMALL_SETS, "--set", "glove.learning_rate=1e300"],
         "error: objective became non-finite at epoch 1\n"),
        (["train", *SMALL_SETS, "--set", f"glove.init_scale={sys.float_info.max / 2!r}"],
         "error: objective became non-finite at epoch 0\n"),
        (["train", "--variant", "Single-MLL", *SMALL_SETS, "--set", "train.learning_rate=1e200",
          "--set", "train.batch_size=1000"],
         "error: validation scores became non-finite at epoch 1, batch 1\n"),
        (["train", *SMALL_SETS, "--set", "train.learning_rate=1e200", "--set", "train.batch_size=1000",
          "--set", "train.epochs=1"],  # scores of +-inf, with no NaN among them
         "error: validation scores became non-finite at epoch 1, batch 1\n"),
    ):
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1, args
        assert capsys.readouterr().err == message, args
        assert not out.exists(), args


def test_eval_of_features_the_model_overflows_on_names_non_finite_scores(work, tmp_path, capsys):
    """Finite features of about the largest float overflow the encoder: eval exits 1 with an
    error that names the non-finite scores, not the score table's range, and makes no directory."""
    lines = (work / "synth" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    samples = [json.loads(line) for line in lines]
    for sample in samples:
        sample["features"] = [1.7e308 * (-1) ** j for j in range(len(sample["features"]))]
    data = tmp_path / "huge.jsonl"
    data.write_text("".join(json.dumps(sample) + "\n" for sample in samples), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["eval", "--checkpoint", str(work / "crc" / "checkpoint.mllg"), "--data", str(data),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: non-finite scores: the model overflows on this dataset's features\n"
    assert not out.exists()


def _capped_cli(args, cwd, program=("-m", "mllgraph.cli")):
    """Run the CLI (or another Python `program`) in a child process whose address space is capped
    at 2 GiB, so an unchecked size fails there with a MemoryError instead of filling the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *program, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=cap)


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("key", ["n_samples", "feature_dim", "sp_count", "as_count"])
def test_oversized_synthetic_sizes_are_refused_before_anything_is_allocated(tmp_path, command, key):
    """A size whose largest array passes the cell cap exits 2 with an error line,
    no traceback and no directory, from synth and from train without a data path."""
    run = _capped_cli([command, "--set", f"synthetic.{key}={10 ** 12}", "--out", "out"], tmp_path)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: synthetic: the largest array"), run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expr", ["glove.d=1000000000000", "encoder.layer_widths=[1000000000000]"])
def test_an_allocation_that_fails_exits_1(tmp_path, expr):
    """A width whose arrays cannot be allocated ends as exit 1 with an error line,
    no traceback and no directory."""
    run = _capped_cli(["train", *SMALL_SETS, "--set", expr, "--out", "out"], tmp_path)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: Unable to allocate"), run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "out").exists()


def test_seeded_fuzzer_cases_keep_the_exit_contract(tmp_path):
    """tests/cli_fuzz.py, one capped child running every case in-process: it exits 0 when every
    case keeps the exit contract (0, 1 or 2, an error line and nothing left behind on failure,
    no warning, no exception escaping main), and lists the cases that break it on stderr otherwise."""
    run = _capped_cli([str(tmp_path / "fuzz"), "0"], tmp_path, program=(str(Path(__file__).with_name("cli_fuzz.py")),))
    assert run.returncode == 0, run.stderr
    cases = [json.loads(line) for line in run.stdout.splitlines()]
    assert len(cases) == len(cli_fuzz.REPLAYS) + sum(cli_fuzz.CASES.values()) + cli_fuzz.CASES["header"]
    skipped = [f"{case['target']}, {case['case']}" for case in cases if case["skipped"]]
    print("ended by the alarm:", *skipped, sep="\n  ")
    # a valid run made long is skipped, and the fuzzer reaches the allocation that once escaped main
    assert "set, train.epochs = 1000000000000" in skipped
    (glove,) = [case for case in cases if case["case"] == "glove.d = 1000000000000"]
    assert glove["code"] == 1 and glove["stderr"].startswith("error: Unable to allocate"), glove


def test_the_corpus_paths_are_non_empty_and_given_together(tmp_path, capsys):
    """An empty data path is refused, not read as absent, and either path alone is
    refused from train and synth: none of them falls back to a synthesized corpus."""
    out = tmp_path / "out"
    for args, message in (
        (["train", "--set", "data.dataset_path="], "data.dataset_path: must not be empty"),
        (["train", "--set", "data.dataset_path=x.jsonl", "--set", "data.vocabulary_path="],
         "data.vocabulary_path: must not be empty"),
        (["train", "--set", "data.vocabulary_path=x.json"],
         "data.dataset_path: required when data.vocabulary_path is set"),
        (["synth", "--set", "data.vocabulary_path=x.json"],
         "data.dataset_path: required when data.vocabulary_path is set"),
    ):
        assert main([*args, "--out", str(out)]) == 2, args
        assert capsys.readouterr().err == f"error: {message}\n", args
        assert not out.exists(), args


def test_every_command_hands_the_freed_heap_back(work, tmp_path, monkeypatch, capsys):
    """main calls glibc's malloc_trim(0) after each command, a failed one included,
    and runs as before where the C library has no such call."""
    calls = []

    def malloc_trim(pad):
        calls.append(pad)
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(malloc_trim=malloc_trim))
    checkpoint = str(work / "crc" / "checkpoint.mllg")
    export = ["export", "--checkpoint", checkpoint, "--what", "embeddings"]
    assert main([*export, "--out", str(tmp_path / "a")]) == 0
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "b")]) == 1
    assert calls == [0, 0]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert main([*export, "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "embeddings.csv").exists()


def test_wide_eval_writes_the_test_scores_train_wrote(tmp_path):
    """At 1000 classes most rows of B-hat are gathered; eval builds the same LabelGraph from the
    checkpoint that train built from phase 1, so its scores of the test split are train's, cell for cell."""
    wide = ["--set", "synthetic.sp_count=250", "--set", "synthetic.as_count=750",
            "--set", "synthetic.n_samples=300"]
    corpus = tmp_path / "corpus"
    assert main(["synth", "--seed", "2", "--out", str(corpus), *wide]) == 0
    assert main([
        "train", "--seed", "2", "--variant", "MLL-GCN", "--out", str(tmp_path / "train"),
        "--set", "train.epochs=1", "--set", "glove.epochs=2",
        "--set", f"data.dataset_path={corpus / 'dataset.jsonl'}",
        "--set", f"data.vocabulary_path={corpus / 'vocabulary.json'}",
    ]) == 0
    graph = load_checkpoint(tmp_path / "train" / "checkpoint.mllg").head.graph
    assert graph.rows.position is not None and graph.T.position is not None
    train_scores = (tmp_path / "train" / "scores_test.csv").read_bytes()
    test_ids = [line.split(b",", 1)[0].decode() for line in train_scores.splitlines()[1:]]
    records = {json.loads(line)["id"]: line
               for line in (corpus / "dataset.jsonl").read_text(encoding="utf-8").splitlines()}
    (tmp_path / "test.jsonl").write_text("".join(records[i] + "\n" for i in test_ids), encoding="utf-8")
    assert main([
        "eval", "--checkpoint", str(tmp_path / "train" / "checkpoint.mllg"),
        "--data", str(tmp_path / "test.jsonl"), "--out", str(tmp_path / "eval"),
    ]) == 0
    assert (tmp_path / "eval" / "scores.csv").read_bytes() == train_scores


def test_eval_artifacts(work):
    out = work / "eval"
    for name in ("metrics.json", "scores.csv", "vocabulary.json", "per_class_ap.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert set(report) == set(METRIC_KEYS)
    ap_lines = (out / "per_class_ap.csv").read_text(encoding="utf-8").splitlines()
    assert ap_lines[0] == "name,ap"
    assert len(ap_lines) == 10


def test_eval_flag_validation(work, tmp_path):
    ckpt = str(work / "crc" / "checkpoint.mllg")
    data = str(work / "synth" / "dataset.jsonl")
    assert main(["eval", "--checkpoint", ckpt, "--data", data,
                 "--out", str(tmp_path / "e"), "--threshold", "1.5"]) == 2
    assert main(["eval", "--checkpoint", ckpt, "--data", data,
                 "--out", str(tmp_path / "e"), "--sp-mode", "top1"]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.mllg"), "--data", data,
                 "--out", str(tmp_path / "e")]) == 1


def test_eval_checks_flags_before_reading_files(tmp_path, capsys):
    # neither file exists: the bad flag is reported first, as a usage error
    for flags, message in ((["--sp-mode", "bogus"], "--sp-mode must be 'exact' or 'argmax'"),
                           (["--threshold", "-1"], "--threshold must lie within [0, 1]")):
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.mllg"),
                     "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "e"),
                     *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "e").exists()


def test_export_targets(work, tmp_path):
    ckpt = str(work / "crc" / "checkpoint.mllg")
    for what, filename in (
        ("embeddings", "embeddings.csv"),
        ("correlation", "correlation.csv"),
        ("clusters", "centroids.csv"),
        ("projection", "projection.csv"),
    ):
        out = tmp_path / what
        assert main(["export", "--checkpoint", ckpt, "--what", what, "--out", str(out)]) == 0
        assert (out / filename).exists()
    proj_lines = (tmp_path / "projection" / "projection.csv").read_text(encoding="utf-8").splitlines()
    assert proj_lines[0] == "name,pc1,pc2"
    assert len(proj_lines) == 10


def test_export_builds_no_label_graph(work, tmp_path, monkeypatch):
    """export reads the checkpoint's tensors only: the GCN head, and with it B-hat's
    LabelGraph, is built on first use, which export never makes."""
    ckpt = str(work / "crc" / "checkpoint.mllg")
    whats = ("embeddings", "correlation", "clusters", "projection")
    for what in whats:
        assert main(["export", "--checkpoint", ckpt, "--what", what, "--out", str(tmp_path / "a" / what)]) == 0

    def refuse(B):
        raise AssertionError("export built a LabelGraph")

    monkeypatch.setattr(trainer, "LabelGraph", refuse)
    for what in whats:
        assert main(["export", "--checkpoint", ckpt, "--what", what, "--out", str(tmp_path / "b" / what)]) == 0
        for path in (tmp_path / "a" / what).iterdir():
            assert (tmp_path / "b" / what / path.name).read_bytes() == path.read_bytes(), path.name


def test_export_rejects_missing_tensors(work, tmp_path):
    single = str(work / "single" / "checkpoint.mllg")
    assert main(["export", "--checkpoint", single, "--what", "correlation",
                 "--out", str(tmp_path / "a")]) == 2
    assert main(["export", "--checkpoint", single, "--what", "clusters",
                 "--out", str(tmp_path / "b")]) == 2
    # a refused export creates no output directory; MLL-GCN has a graph but no clusters
    assert main(["train", "--out", str(tmp_path / "gcn"), "--variant", "MLL-GCN", *SMALL_SETS]) == 0
    for ckpt, what in ((single, "correlation"), (str(tmp_path / "gcn" / "checkpoint.mllg"), "clusters")):
        assert main(["export", "--checkpoint", ckpt, "--what", what, "--out", str(tmp_path / "nodir" / "sub")]) == 2
        assert not (tmp_path / "nodir").exists(), what
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_export_rejects_malformed_header(work, tmp_path, capsys):
    raw = (work / "crc" / "checkpoint.mllg").read_bytes()
    header = read_header(raw)
    for name, bad in (
        ("no_tensors", {k: v for k, v in header.items() if k != "tensors"}),
        ("array", [header]),
        ("kind", dict(header, classifier_kind="linear")),
    ):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(with_header(raw, bad))
        assert main(["export", "--checkpoint", str(path), "--what", "embeddings",
                     "--out", str(tmp_path / name)]) == 1
        assert "error: " in capsys.readouterr().err


def test_eval_and_export_reject_missing_variant_tensors(work, tmp_path, capsys):
    raw = (work / "crc" / "checkpoint.mllg").read_bytes()
    names = [t["name"] for t in read_header(raw)["tensors"]]
    data = str(work / "synth" / "dataset.jsonl")
    for dropped, what in (("correlation", "correlation"), ("centroids", "clusters")):
        path = tmp_path / f"no_{dropped}.mllg"
        path.write_bytes(with_tensors(raw, [n for n in names if n != dropped]))
        assert main(["eval", "--checkpoint", str(path), "--data", data,
                     "--out", str(tmp_path / f"eval_{dropped}")]) == 1
        assert main(["export", "--checkpoint", str(path), "--what", what,
                     "--out", str(tmp_path / f"export_{dropped}")]) == 1
        err = capsys.readouterr().err
        assert err.count("error: header differs from the one a save writes at tensors[") == 2 and dropped in err


def test_eval_and_export_reject_misshapen_tensors(work, tmp_path, capsys):
    raw = (work / "crc" / "checkpoint.mllg").read_bytes()
    data = str(work / "synth" / "dataset.jsonl")
    for name, shapes in (("correlation", {"correlation": [3, 27]}),
                         ("embeddings", {"embeddings": [8, 9]})):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(with_shapes(raw, shapes))
        assert main(["eval", "--checkpoint", str(path), "--data", data,
                     "--out", str(tmp_path / f"eval_{name}")]) == 1
        assert main(["export", "--checkpoint", str(path), "--what", name,
                     "--out", str(tmp_path / f"export_{name}")]) == 1
        err = capsys.readouterr().err
        assert err.count(f"error: header differs from the one a save writes at tensors[{name}].shape") == 2
        assert not (tmp_path / f"export_{name}").exists()


def test_eval_and_export_reject_header_edits(work, tmp_path, capsys):
    raw = (work / "crc" / "checkpoint.mllg").read_bytes()
    single = (work / "single" / "checkpoint.mllg").read_bytes()
    layers, layers_match = LINEAR_GCN_LAYERS
    edits = [(name, with_header(raw, bad), match) for name, bad, match in header_edits(read_header(raw))]
    edits.append(("linear_gcn_layers", with_header(single, dict(read_header(single), gcn_layers=layers)),
                  layers_match))
    data = str(work / "synth" / "dataset.jsonl")
    for name, edited, match in edits:
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(edited)
        assert main(["eval", "--checkpoint", str(path), "--data", data,
                     "--out", str(tmp_path / f"eval_{name}")]) == 1, name
        assert main(["export", "--checkpoint", str(path), "--what", "embeddings",
                     "--out", str(tmp_path / f"export_{name}")]) == 1, name
        assert len(re.findall(f"^error: .*{match}", capsys.readouterr().err, re.MULTILINE)) == 2, name
        assert not (tmp_path / f"eval_{name}").exists() and not (tmp_path / f"export_{name}").exists()


def test_eval_and_export_reject_non_finite_tensors(work, tmp_path, capsys):
    raw = (work / "crc" / "checkpoint.mllg").read_bytes()
    data = str(work / "synth" / "dataset.jsonl")
    for name, targets in (("embeddings", ("embeddings", "correlation", "projection")),
                          ("correlation", ("correlation", "embeddings")),
                          ("centroids", ("clusters",)),
                          ("encoder.0.weight", ("embeddings",))):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(with_value(raw, name, float("nan")))
        assert main(["eval", "--checkpoint", str(path), "--data", data,
                     "--out", str(tmp_path / f"eval_{name}")]) == 1
        for what in targets:
            assert main(["export", "--checkpoint", str(path), "--what", what,
                         "--out", str(tmp_path / f"export_{name}_{what}")]) == 1
            assert not (tmp_path / f"export_{name}_{what}").exists()
        err = capsys.readouterr().err
        assert err.count(f"error: tensor {name!r} holds non-finite values") == 1 + len(targets)


def test_metrics_oracle_agrees_with_eval_output(work, capsys):
    code = main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(work / "eval" / "metrics.json"),
        "--vocabulary", str(work / "eval" / "vocabulary.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "all metrics agree with the oracle" in out


def test_metrics_oracle_verifies_argmax_reports(work, tmp_path, capsys):
    out = tmp_path / "argmax"
    assert main(["eval", "--checkpoint", str(work / "crc" / "checkpoint.mllg"),
                 "--data", str(work / "synth" / "dataset.jsonl"), "--out", str(out),
                 "--sp-mode", "argmax"]) == 0
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    exact = json.loads((work / "eval" / "metrics.json").read_text(encoding="utf-8"))
    assert report["SP_ACC"] != exact["SP_ACC"]  # the two rules disagree on this data
    check = ["metrics-oracle", "--scores", str(out / "scores.csv"), "--report", str(out / "metrics.json"),
             "--vocabulary", str(out / "vocabulary.json")]
    capsys.readouterr()
    assert main(check + ["--sp-mode", "argmax"]) == 0
    assert "all metrics agree with the oracle" in capsys.readouterr().out
    assert main(check) == 1
    assert "SP_ACC: MISMATCH" in capsys.readouterr().out
    assert main(check + ["--sp-mode", "top1"]) == 2


def test_metrics_oracle_skips_sp_acc_without_vocabulary(work, capsys):
    code = main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(work / "eval" / "metrics.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "SP_ACC: skipped" in out


def test_metrics_oracle_agrees_at_a_rounding_tie(tmp_path, capsys):
    # seed 126 of a search over random tables: CR is exactly 45.625 %, a tie
    # at two decimals. A loop sum of the eight per-class recalls lands one
    # bit above it (45.63), a pairwise mean on it (45.62); the report and the
    # oracle must take the same mean
    rng = np.random.default_rng(126)
    n, C = int(rng.integers(2, 30)), int(rng.integers(8, 60))
    table = ScoreTable(rng.random((n, C)), rng.integers(0, 2, (n, C)))
    values, _ = compute_report(table, list(range(C)))
    (tmp_path / "metrics.json").write_text(format_report_json(values), encoding="utf-8")
    write_score_csv(tmp_path / "scores.csv", table, [f"s{i}" for i in range(n)], [f"c{j}" for j in range(C)])
    code = main(["metrics-oracle", "--scores", str(tmp_path / "scores.csv"),
                 "--report", str(tmp_path / "metrics.json")])
    out = capsys.readouterr().out
    assert "CR: ok (45.62)" in out
    assert code == 0


def test_metrics_oracle_flags_tampered_report(work, tmp_path, capsys):
    report = json.loads((work / "eval" / "metrics.json").read_text(encoding="utf-8"))
    report["MLL_ACC"] = round(report["MLL_ACC"] + 5.0, 2)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report), encoding="utf-8")
    code = main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(tampered),
        "--vocabulary", str(work / "eval" / "vocabulary.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "MISMATCH" in captured.out
    assert captured.err == "error: metrics disagree with the oracle\n"


def test_metrics_oracle_rejects_incomplete_report(work, tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text('{"MLL_ACC": 50.0}', encoding="utf-8")
    assert main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(partial),
    ]) == 2


def test_metrics_oracle_rejects_report_that_is_not_an_object_of_numbers(work, tmp_path, capsys):
    for name, text, message in (
        ("list", json.dumps(list(METRIC_KEYS)), "report must be a JSON object, got list"),
        ("nulls", json.dumps(dict.fromkeys(METRIC_KEYS)), "report values are not numbers"),
        # valid JSON, but past float range: refused, not an OverflowError out of float()
        ("huge", json.dumps(dict.fromkeys(METRIC_KEYS, 0) | {"HL": 10**400}), "report values are not numbers: ['HL']"),
        ("cut", '{"SP_ACC": 1', "report is not valid JSON: "),
        ("deep", "[" * 100_000, "report is not valid JSON: "),
        ("digits", '{"SP_ACC": 1' + "0" * 5000 + "}", "report is not valid JSON: "),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        assert main([
            "metrics-oracle",
            "--scores", str(work / "eval" / "scores.csv"),
            "--report", str(path),
        ]) == 2
        assert message in capsys.readouterr().err


def test_metrics_oracle_rejects_wrong_vocabulary(work, tmp_path):
    other = tmp_path / "vocab.json"
    synthetic_vocabulary(2, 2).save(other)
    assert main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(work / "eval" / "metrics.json"),
        "--vocabulary", str(other),
    ]) == 2
