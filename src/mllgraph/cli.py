"""Command-line interface: synth, train, eval, export, metrics-oracle.

Every run is driven by one JSON config; flags and --set overrides rewrite
it before anything executes, and the resolved snapshot is written next to
the artifacts. Exit codes: 0 success, 1 runtime failure, 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifacts import (
    read_score_csv,
    write_assignments_csv,
    write_centroids_csv,
    write_embeddings_csv,
    write_matrix_csv,
    write_rows,
    write_score_csv,
)
from .config import _is_number, config_from_dict
from .corpus import (
    Dataset,
    LabelVocabulary,
    SyntheticConfig,
    check_split_ratios,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_by_subject,
)
from .metrics import METRIC_KEYS, SP_MODES, compute_report, format_report_json, percentages
from .oracle import oracle_metrics
from .seeding import stage_seed
from .trainer import (
    CheckpointError,
    VariantSpec,
    VARIANT_NAMES,
    TrainConfig,
    load_checkpoint,
    run_pipeline,
    save_checkpoint,
    score_dataset,
)


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


# Run-config sections that group TrainConfig fields, as {run-config key:
# TrainConfig field}. Every other TrainConfig field (the seed and the nested
# sections) sits at the top level of the run config under its own name.
_TRAIN_SECTIONS = {
    "train": {key: key for key in ("epochs", "learning_rate", "momentum", "batch_size")},
    "kmeans": {"n_clusters": "n_clusters", "max_iter": "kmeans_max_iter", "tol": "kmeans_tol"},
}
# {TrainConfig field: its run-config key} for the fields in those sections
_RUN_KEYS = {field: f"{name}.{key}" for name, keys in _TRAIN_SECTIONS.items() for key, field in keys.items()}


class Run(NamedTuple):
    """A checked run config: the snapshot to write, and what is built from it."""

    cfg: dict
    variant: VariantSpec
    threshold: float
    sp_mode: str
    ratios: tuple
    train: TrainConfig
    synthetic: SyntheticConfig


def default_run_config() -> dict:
    t = dataclasses.asdict(TrainConfig())
    sections = {
        name: {key: t.pop(field) for key, field in keys.items()}
        for name, keys in _TRAIN_SECTIONS.items()
    }
    syn = dataclasses.asdict(SyntheticConfig())
    syn.pop("seed")
    return {
        "variant": "MLL-GCN-CRC",
        "out_dir": "runs/default",
        "data": {
            "dataset_path": None,
            "vocabulary_path": None,
            "split_ratios": [0.45, 0.27, 0.28],
        },
        "synthetic": syn,
        **t,
        **sections,
        "metrics": {"threshold": 0.5, "sp_mode": "exact"},
    }


def merge_config(base: dict, override: dict, path: str = "") -> dict:
    """`base` with `override`'s values, copying only the sections they change; a key absent
    from `base` is refused, and a section (an object) takes only an object, merged key by key."""
    out = dict(base)
    for key, value in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
            value = merge_config(base[key], value, where + ".")
        out[key] = value
    return out


def apply_set(cfg: dict, expr: str) -> None:
    """Merge one `key.path=value` override into `cfg`; the value is JSON, or else the plain string."""
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, _, value = expr.partition("=")
    try:
        value = json.loads(value)
    except (ValueError, RecursionError):  # not JSON, too many digits, too deep: the plain string
        pass
    for part in reversed(key.split(".")):
        value = {part: value}
    cfg.update(merge_config(cfg, value))


def resolve_config(args) -> Run:
    """The run config of the defaults, --config, each --set in order and the flags, with every
    section checked. A flag is applied when given (not None), even when it is empty."""
    cfg = default_run_config()
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = merge_config(cfg, file_cfg)
    for expr in args.set or []:
        apply_set(cfg, expr)
    flags = {"variant": getattr(args, "variant", None), "seed": args.seed, "out_dir": args.out}
    cfg = merge_config(cfg, {key: value for key, value in flags.items() if value is not None})
    _out_path(cfg["out_dir"], "out_dir")
    data = cfg["data"]
    paths = ("dataset_path", "vocabulary_path")
    given = [key for key in paths if _out_path(data[key], f"data.{key}", nullable=True) is not None]
    if len(given) == 1:  # the corpus and its vocabulary come together or not at all
        other = paths[1 - paths.index(given[0])]
        raise ConfigError(f"data.{other}: required when data.{given[0]} is set")
    try:
        variant = VariantSpec.from_name(cfg["variant"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    threshold, sp_mode = _check_scoring(
        cfg["metrics"]["threshold"], cfg["metrics"]["sp_mode"], ("metrics.threshold:", "metrics.sp_mode:")
    )
    try:
        ratios = check_split_ratios(data["split_ratios"])
    except ValueError as exc:
        raise ConfigError(f"data.split_ratios: {exc}") from exc
    return Run(cfg, variant, threshold, sp_mode, ratios, build_train_config(cfg), build_synthetic_config(cfg))


def build_synthetic_config(cfg: dict) -> SyntheticConfig:
    data = dict(cfg["synthetic"], seed=stage_seed(cfg["seed"], "synthetic"))
    try:
        return config_from_dict(SyntheticConfig, data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synthetic: {exc}") from exc


def build_train_config(cfg: dict) -> TrainConfig:
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    data = {key: value for key, value in cfg.items() if key in names}
    for name, keys in _TRAIN_SECTIONS.items():
        data.update((field, cfg[name][key]) for key, field in keys.items())
    try:
        return config_from_dict(TrainConfig, data)
    except (TypeError, ValueError) as exc:  # the message starts with the field's name
        field = re.match(r"\w*", str(exc)).group()
        raise ConfigError(f"train config: {_RUN_KEYS.get(field, field)}{str(exc)[len(field):]}") from exc


def _check_scoring(threshold, sp_mode, names=("--threshold", "--sp-mode")):
    """(threshold, sp_mode) once both are valid; `names` label the two in the error."""
    if not (_is_number(threshold) and 0.0 <= threshold <= 1.0):
        raise ConfigError(f"{names[0]} must lie within [0, 1]")
    if sp_mode not in SP_MODES:
        raise ConfigError(f"{names[1]} must be 'exact' or 'argmax'")
    return float(threshold), sp_mode


def _obtain_dataset(run: Run) -> Dataset:
    data = run.cfg["data"]
    if data["dataset_path"] is not None:
        return load_dataset(data["dataset_path"], LabelVocabulary.load(data["vocabulary_path"]))
    return generate_synthetic(run.synthetic)


def _out_path(value, name: str, nullable: bool = False) -> Path | None:
    """`value` as the Path it names, once it is a non-empty string (an empty one would be
    the working directory); None stays None where `nullable`. `name` labels it in the error."""
    if value is None and nullable:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{name}: expected a string{' or null' if nullable else ''}, got {json.dumps(value)}")
    if not value:
        raise ConfigError(f"{name}: must not be empty")
    return Path(value)


def _write_report(out: Path, suffix: str, cp, dataset: Dataset, threshold: float, sp_mode: str):
    """Score `dataset` with the checkpoint, and write metrics<suffix>.json and
    scores<suffix>.csv into `out`, made once the report is; returns the report."""
    table = score_dataset(cp, dataset, threshold)
    values, per_class_ap = compute_report(table, cp.vocabulary.sp_indices, sp_mode)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"metrics{suffix}.json").write_text(format_report_json(values), encoding="utf-8")
    write_score_csv(out / f"scores{suffix}.csv", table, dataset.ids, cp.vocabulary.names)
    return values, per_class_ap


def _write_config_snapshot(cfg: dict, out: Path) -> None:
    (out / "config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_synth(args) -> int:
    run = resolve_config(args)
    dataset = generate_synthetic(run.synthetic)
    out = Path(run.cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out / "dataset.jsonl")
    dataset.vocabulary.save(out / "vocabulary.json")
    _write_config_snapshot(run.cfg, out)
    vocab = dataset.vocabulary
    print(
        f"wrote {len(dataset)} samples over {len(dataset.subject_ids())} subjects, "
        f"{vocab.size} classes ({vocab.sp_indices.size} SP / {vocab.as_indices.size} AS)"
    )
    print(f"artifacts in {out}")
    return 0


def cmd_train(args) -> int:
    run = resolve_config(args)
    cfg, variant, tcfg = run.cfg, run.variant, run.train
    # the splits hold copies of their rows, so the whole corpus is not kept beside them
    train, val, test = split_by_subject(_obtain_dataset(run), run.ratios, stage_seed(cfg["seed"], "split"))
    vocab = train.vocabulary
    if variant.contrastive_mode == "cluster_relabeled" and tcfg.n_clusters > vocab.size:
        raise ConfigError(f"kmeans.n_clusters: {tcfg.n_clusters} exceeds the {vocab.size} classes k-means groups")
    print(f"variant {variant.name}, seed {cfg['seed']}")
    print(f"split sizes: train {len(train)} / val {len(val)} / test {len(test)}")

    result = run_pipeline(train, val, variant, tcfg)
    cp, phase1 = result.checkpoint, result.phase1
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(cp, out / "checkpoint.mllg")
    _write_config_snapshot(cfg, out)
    vocab.save(out / "vocabulary.json")

    write_matrix_csv(out / "cooccurrence.csv", phase1.cooccurrence, vocab.names)
    if phase1.correlation is not None:
        write_matrix_csv(out / "correlation.csv", phase1.correlation, vocab.names)
    write_embeddings_csv(out / "embeddings.csv", phase1.embeddings, vocab.names)
    glove_trace = phase1.glove_loss_trace
    write_rows(out / "glove_trace.csv", ("epoch", "loss"), range(len(glove_trace)), glove_trace[:, None])
    write_rows(out / "trace.csv", ("epoch", "train_loss", "val_exact_match"), [r.epoch for r in result.trace],
               np.array([(r.train_loss, r.val_exact_match) for r in result.trace]))
    if phase1.centroids is not None:
        write_assignments_csv(out / "sample_clusters.csv", train.ids, phase1.contrast_labels)
        write_centroids_csv(out / "centroids.csv", phase1.centroids)

    for split, name in ((val, "val"), (test, "test")):
        if len(split) == 0:
            continue
        values, _ = _write_report(out, f"_{name}", cp, split, run.threshold, run.sp_mode)
        scaled = percentages(values)
        print(f"{name}: " + " ".join(f"{k}={scaled[k]}" for k in ("MLL_ACC", "SP_ACC", "mAP", "HL")))

    print(f"best epoch {cp.epoch} (val exact-match {result.trace[cp.epoch - 1].val_exact_match:.4f})")
    print(f"artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    _check_scoring(args.threshold, args.sp_mode)
    out = _out_path(args.out, "--out")
    cp = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data, cp.vocabulary)
    values, per_class_ap = _write_report(out, "", cp, dataset, args.threshold, args.sp_mode)
    cp.vocabulary.save(out / "vocabulary.json")
    write_rows(out / "per_class_ap.csv", ("name", "ap"), cp.vocabulary.names, per_class_ap[:, None])
    scaled = percentages(values)
    print(" ".join(f"{k}={scaled[k]}" for k in METRIC_KEYS))
    print(f"artifacts in {out}")
    return 0


def _pca_projection(Z: np.ndarray):
    mean = Z.mean(axis=0)
    centered = Z - mean
    _, _, Vt = np.linalg.svd(centered, full_matrices=False)
    axes = Vt[:2].copy()
    for j in range(axes.shape[0]):
        k = int(np.argmax(np.abs(axes[j])))
        if axes[j, k] < 0:
            axes[j] = -axes[j]
    return centered @ axes.T, axes, mean


def cmd_export(args) -> int:
    out = _out_path(args.out, "--out")
    cp = load_checkpoint(args.checkpoint)
    if args.what == "correlation" and cp.correlation is None:
        raise ConfigError("checkpoint stores no correlation matrix (non-graph variant)")
    if args.what == "clusters" and cp.centroids is None:
        raise ConfigError("checkpoint stores no cluster model (non-CRC variant)")
    out.mkdir(parents=True, exist_ok=True)
    names = cp.vocabulary.names
    if args.what == "embeddings":
        write_embeddings_csv(out / "embeddings.csv", cp.embeddings, names)
    elif args.what == "correlation":
        write_matrix_csv(out / "correlation.csv", cp.correlation, names)
    elif args.what == "clusters":
        write_centroids_csv(out / "centroids.csv", cp.centroids)
    else:  # projection, the last of the parser's choices
        proj, axes, mean = _pca_projection(cp.embeddings)
        write_rows(out / "projection.csv", ("name", "pc1", "pc2"), names, proj)
        write_rows(out / "projection_axes.csv", ["component"] + [f"e{j}" for j in range(axes.shape[1])],
                   ["mean"] + [f"pc{j + 1}" for j in range(len(axes))], [mean, *axes])
    print(f"artifacts in {out}")
    return 0


def cmd_metrics_oracle(args) -> int:
    _check_scoring(args.threshold, args.sp_mode)
    _, names, table = read_score_csv(args.scores, args.threshold)
    try:
        reported = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
        raise ConfigError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(reported, dict):
        raise ConfigError(f"report must be a JSON object, got {type(reported).__name__}")
    missing = [k for k in METRIC_KEYS if k not in reported]
    if missing:
        raise ConfigError(f"report lacks keys: {missing}")
    not_numbers = [k for k in METRIC_KEYS if not _is_number(reported[k])]
    if not_numbers:
        raise ConfigError(f"report values are not numbers: {not_numbers}")
    sp_indices = None
    if args.vocabulary:
        vocab = LabelVocabulary.load(args.vocabulary)
        if vocab.names != tuple(names):
            raise ConfigError("vocabulary does not match the score file columns")
        sp_indices = vocab.sp_indices
    oracle = percentages(oracle_metrics(table.scores, table.targets, args.threshold, sp_indices, args.sp_mode))
    ok = True
    for key in METRIC_KEYS:
        if key == "SP_ACC" and sp_indices is None:
            print("SP_ACC: skipped (pass --vocabulary to check it)")
            continue
        want = oracle[key]
        got = float(reported[key])
        if abs(got - want) <= 1e-9:
            print(f"{key}: ok ({got})")
        else:
            ok = False
            print(f"{key}: MISMATCH report={got} oracle={want}")
    if not ok:
        print("metrics disagree with the oracle", file=sys.stderr)
        return 1
    print("all metrics agree with the oracle")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, with_variant: bool) -> None:
    p.add_argument("--config", help="JSON config file merged over the defaults")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config entry (dotted path, JSON value)")
    p.add_argument("--seed", type=int, help="root seed; all stage seeds derive from it")
    p.add_argument("--out", help="output directory (config key out_dir)")
    if with_variant:
        p.add_argument("--variant", help="ablation variant: " + ", ".join(VARIANT_NAMES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mllgraph",
        description="Dependency-aware multi-label classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    _add_config_flags(p, with_variant=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one variant and write its artifacts")
    _add_config_flags(p, with_variant=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="JSONL dataset path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--sp-mode", dest="sp_mode", default="exact")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="export checkpoint tensors as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--what", required=True,
                   choices=("embeddings", "correlation", "clusters", "projection"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("metrics-oracle", help="recheck a metrics report against score CSVs")
    p.add_argument("--scores", required=True, help="scores CSV written by train/eval")
    p.add_argument("--report", required=True, help="metrics JSON to verify")
    p.add_argument("--vocabulary", help="vocabulary JSON (enables the SP_ACC check)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--sp-mode", dest="sp_mode", default="exact",
                   help="SP_ACC rule the report was made with, as for eval: exact or argmax")
    p.set_defaults(func=cmd_metrics_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _release_free_memory()


def _release_free_memory() -> None:
    """Hand the C heap's free pages back to the OS (glibc): whether glibc frees a command's
    arrays on its own turns on where its cached small blocks landed, which varies run to run."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
        trim(0)


if __name__ == "__main__":
    sys.exit(main())
