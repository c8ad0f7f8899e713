import hashlib
import json

import numpy as np
import pytest

from mllgraph.cli import ConfigError, apply_set, default_run_config, main, merge_config
from mllgraph.corpus import LabelVocabulary, load_dataset, synthetic_vocabulary
from mllgraph.metrics import METRIC_KEYS, ScoreTable, compute_report, format_report_json, write_score_csv
from mllgraph.trainer import LinearHead, load_checkpoint

from test_trainer import read_header, with_header, with_shapes, with_tensors

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
    # sha256 of the corpus as the per-sample writer produced it; 600 lines
    # span more than one block of the block-wise writer
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


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x"), "--set", "synthetic.rho=1"]) == 2
    assert main(["synth", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
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


def test_export_rejects_missing_tensors(work, tmp_path):
    single = str(work / "single" / "checkpoint.mllg")
    assert main(["export", "--checkpoint", single, "--what", "correlation",
                 "--out", str(tmp_path / "a")]) == 2
    assert main(["export", "--checkpoint", single, "--what", "clusters",
                 "--out", str(tmp_path / "b")]) == 2


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
        assert err.count("error: malformed header") == 2 and dropped in err


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
        assert err.count("error: tensor shapes") == 2 and name in err
        assert not (tmp_path / f"export_{name}").exists()


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
    report = compute_report(table, list(range(C)))
    (tmp_path / "metrics.json").write_text(format_report_json(report), encoding="utf-8")
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


def test_metrics_oracle_rejects_incomplete_report(work, tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text('{"MLL_ACC": 50.0}', encoding="utf-8")
    assert main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(partial),
    ]) == 2


def test_metrics_oracle_rejects_wrong_vocabulary(work, tmp_path):
    other = tmp_path / "vocab.json"
    synthetic_vocabulary(2, 2).save(other)
    assert main([
        "metrics-oracle",
        "--scores", str(work / "eval" / "scores.csv"),
        "--report", str(work / "eval" / "metrics.json"),
        "--vocabulary", str(other),
    ]) == 2
