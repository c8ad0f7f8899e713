"""Byte-level checks of the matrix CSV writers against a per-element reference."""

import numpy as np

from mllgraph.cooccur import write_matrix_csv
from mllgraph.glove import write_embeddings_csv
from mllgraph.metrics import ScoreTable, write_score_csv
from mllgraph.relabel import ClusterModel, RelabeledDataset, write_assignments_csv, write_centroids_csv

# values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, a huge magnitude, and a decimal with no exact binary form
EDGE_FLOATS = np.array([[-0.0, 5e-324, 1e300, 0.1], [1.0, -2.5, 0.0, 1 / 3]])
UNIT_FLOATS = np.array([[-0.0, 5e-324, 0.1, 1.0], [0.0, 1 / 3, 0.5, 1 - 2 ** -53]])


def ref_row(row) -> str:
    """Reference: one str(int(v)) or repr(float(v)) per NumPy scalar."""
    if np.issubdtype(row.dtype, np.integer):
        return ",".join(str(int(v)) for v in row)
    return ",".join(repr(float(v)) for v in row)


def test_write_matrix_csv_bytes(tmp_path):
    counts = np.array([[0, 7, 2 ** 62], [7, 1, 0], [2 ** 62, 0, 3]], dtype=np.int64)
    for M, names in ((EDGE_FLOATS, ["a", "b", "c", "d"]), (counts, ["a", "b", "c"])):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M, names)
        want = ",".join(names) + "\n" + "".join(ref_row(r) + "\n" for r in M)
        assert path.read_bytes() == want.encode("utf-8")


def test_write_score_csv_bytes(tmp_path):
    targets = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.uint8)
    table = ScoreTable(UNIT_FLOATS, targets)
    names = ["SLAP", "CF", "x", "y"]
    path = tmp_path / "scores.csv"
    write_score_csv(path, table, ["s0", "s1"], names)
    want = "id," + ",".join(names) + "," + ",".join(f"target:{n}" for n in names) + "\n"
    want += "".join(
        f"{sid},{ref_row(s)},{ref_row(t)}\n"
        for sid, s, t in zip(["s0", "s1"], table.scores, table.targets)
    )
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
    write_centroids_csv(cpath, ClusterModel(EDGE_FLOATS))
    want = "cluster,c0,c1,c2,c3\n" + "".join(f"{k},{ref_row(r)}\n" for k, r in enumerate(EDGE_FLOATS))
    assert cpath.read_bytes() == want.encode("utf-8")

    assignments = np.array([3, 0, 2 ** 40], dtype=np.int64)
    apath = tmp_path / "assignments.csv"
    write_assignments_csv(apath, RelabeledDataset(("a", "b", "c"), assignments))
    want = "id,cluster\n" + "".join(f"{sid},{int(c)}\n" for sid, c in zip("abc", assignments))
    assert apath.read_bytes() == want.encode("utf-8")
