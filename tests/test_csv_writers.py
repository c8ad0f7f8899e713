"""Byte-level checks of the CSV artifacts against a per-element reference."""

import numpy as np

from mllgraph import cli
from mllgraph.artifacts import (
    write_assignments_csv,
    write_centroids_csv,
    write_embeddings_csv,
    write_matrix_csv,
    write_score_csv,
)
from mllgraph.metrics import ScoreTable
from mllgraph.trainer import load_checkpoint

from test_cli import SMALL_SETS

# values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, a huge magnitude, and a decimal with no exact binary form
EDGE_FLOATS = np.array([[-0.0, 5e-324, 1e300, 0.1], [1.0, -2.5, 0.0, 1 / 3]])
UNIT_FLOATS = np.array([[-0.0, 5e-324, 0.1, 1.0], [0.0, 1 / 3, 0.5, 1 - 2 ** -53]])


def ref_row(row) -> str:
    """Reference: one str(int(v)) or repr(float(v)) per NumPy scalar, an empty cell for NaN."""
    if np.issubdtype(row.dtype, np.integer):
        return ",".join(str(int(v)) for v in row)
    return ",".join("" if np.isnan(v) else repr(float(v)) for v in row)


def test_write_matrix_csv_bytes(tmp_path):
    rng = np.random.default_rng(7)
    # the 1000-class benchmark's correlation matrix is about 1.3% nonzero
    sparse = rng.random((1000, 1000)) < 0.013
    cases = [
        EDGE_FLOATS,
        np.zeros((3, 5)),  # all-zero rows
        rng.random((3, 5)) + 0.5,  # rows without zeros
        np.array([[0.0, -0.0, 0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, 0.0, 0.0]]),
        np.array([[0.0, 5e-324, 0.0, -5e-324, 0.0], [5e-324, 0.0, 0.0, 0.0, 5e-324]]),
        np.asfortranarray(rng.random((3, 5)) * (rng.random((3, 5)) < 0.3)),  # not C-contiguous
        np.where(sparse, rng.random((1000, 1000)), 0.0),
        np.array([[0, 7, 2 ** 62], [7, 1, 0], [2 ** 62, 0, 3]], dtype=np.int64),
        np.array([[0, 2 ** 62 - 1, 0, -(2 ** 62)], [2 ** 62 + 1, 0, 0, 0], [0, 0, 0, 0]], dtype=np.int64),
        np.zeros((2, 4), dtype=np.int32),
        np.where(sparse, rng.integers(1, 2 ** 40, (1000, 1000)), 0),
    ]
    path = tmp_path / "m.csv"
    for M in cases:
        names = [f"c{j}" for j in range(M.shape[1])]
        write_matrix_csv(path, M, names)
        want = ",".join(names) + "\n" + "".join(ref_row(r) + "\n" for r in M)
        assert path.read_bytes() == want.encode("utf-8")


def test_write_score_csv_bytes(tmp_path):
    rng = np.random.default_rng(9)
    tables = [ScoreTable(UNIT_FLOATS, np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.uint8))]
    # 1000 classes; then more rows than one block of target text
    for n, C in ((6, 1000), (600, 3)):
        targets = (rng.random((n, C)) < 0.01).astype(np.uint8)
        targets[0] = 0  # an all-zero row
        targets[-1] = 1  # an all-one row
        tables.append(ScoreTable(rng.random((n, C)), targets))
    path = tmp_path / "scores.csv"
    for table in tables:
        ids = [f"s{i}" for i in range(table.n)]
        names = [f"c{j}" for j in range(table.n_classes)]
        write_score_csv(path, table, ids, names)
        want = "id," + ",".join(names) + "," + ",".join(f"target:{n}" for n in names) + "\n"
        want += "".join(f"{sid},{ref_row(s)},{ref_row(t)}\n" for sid, s, t in zip(ids, table.scores, table.targets))
        assert path.read_bytes() == want.encode("utf-8")


def test_write_embeddings_csv_bytes(tmp_path):
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, EDGE_FLOATS, ["a", "b"])
    want = "name,e0,e1,e2,e3\n" + "".join(
        f"{n},{ref_row(r)}\n" for n, r in zip(["a", "b"], EDGE_FLOATS)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_cluster_writers_bytes(tmp_path):
    cpath = tmp_path / "centroids.csv"
    write_centroids_csv(cpath, EDGE_FLOATS)
    want = "cluster,c0,c1,c2,c3\n" + "".join(f"{k},{ref_row(r)}\n" for k, r in enumerate(EDGE_FLOATS))
    assert cpath.read_bytes() == want.encode("utf-8")

    assignments = np.array([3, 0, 2 ** 40], dtype=np.int64)
    apath = tmp_path / "assignments.csv"
    write_assignments_csv(apath, ("a", "b", "c"), assignments)
    want = "id,cluster\n" + "".join(f"{sid},{int(c)}\n" for sid, c in zip("abc", assignments))
    assert apath.read_bytes() == want.encode("utf-8")


def test_command_row_artifacts_bytes(tmp_path, monkeypatch):
    """glove_trace.csv, trace.csv, per_class_ap.csv and the projection files of the commands."""
    seen = {}

    def run_pipeline(*args):
        seen["result"] = cli_run_pipeline(*args)
        return seen["result"]

    def compute_report(*args):
        values, per_class = cli_compute_report(*args)
        per_class[1] = np.nan  # a class without positives
        seen["ap"] = per_class
        return values, per_class

    cli_run_pipeline, cli_compute_report = cli.run_pipeline, cli.compute_report
    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    monkeypatch.setattr(cli, "compute_report", compute_report)
    assert cli.main(["synth", "--out", str(tmp_path / "synth"), *SMALL_SETS]) == 0
    assert cli.main(["train", "--out", str(tmp_path / "train"), *SMALL_SETS]) == 0
    ckpt = str(tmp_path / "train" / "checkpoint.mllg")
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", str(tmp_path / "synth" / "dataset.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert cli.main(["export", "--checkpoint", ckpt, "--what", "projection", "--out", str(tmp_path / "proj")]) == 0

    result = seen["result"]
    cp = load_checkpoint(ckpt)
    names = cp.vocabulary.names
    proj, axes, mean = cli._pca_projection(cp.tensors["embeddings"])
    want = {
        "train/glove_trace.csv": "epoch,loss\n" + "".join(
            f"{i},{ref_row(np.array([v]))}\n" for i, v in enumerate(result.phase1.glove_loss_trace)),
        "train/trace.csv": "epoch,train_loss,val_exact_match\n" + "".join(
            f"{r.epoch},{ref_row(np.array([r.train_loss, r.val_exact_match]))}\n" for r in result.trace),
        "eval/per_class_ap.csv": "name,ap\n" + "".join(
            f"{n},{ref_row(seen['ap'][c:c + 1])}\n" for c, n in enumerate(names)),
        "proj/projection.csv": "name,pc1,pc2\n" + "".join(f"{n},{ref_row(r)}\n" for n, r in zip(names, proj)),
        "proj/projection_axes.csv": "component," + ",".join(f"e{j}" for j in range(axes.shape[1])) + "\n"
        + f"mean,{ref_row(mean)}\n" + "".join(f"pc{j + 1},{ref_row(a)}\n" for j, a in enumerate(axes)),
    }
    assert "\n" + names[1] + ",\n" in want["eval/per_class_ap.csv"]
    for name, text in want.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
