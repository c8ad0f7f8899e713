import numpy as np
import pytest

from mllgraph import diagnostics
from mllgraph.corpus import Dataset, LabelVocabulary, SyntheticConfig, generate_synthetic, synthetic_vocabulary
from mllgraph.artifacts import write_assignments_csv, write_centroids_csv
from mllgraph.relabel import _lloyd, _squared_distances, kmeans, relabel


def test_mean_embedding_hand_case():
    # each sample sits on the centroid placed at the mean of its label embeddings
    vocab = LabelVocabulary((("a", "SP"), ("b", "SP"), ("c", "AS")))
    labels = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
    ds = Dataset(vocab, ["s0", "s1", "s2"], ["p", "p", "p"], np.zeros((3, 1)), labels)
    Z = np.array([[1.0, 0.0], [3.0, 4.0], [0.0, 2.0]])
    centroids = np.array([[0.5, 1.0], [3.0, 4.0], [4.0 / 3.0, 2.0]])
    assert relabel(ds, Z, centroids).tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="empty label set"):
        Dataset(vocab, ["s0"], ["p"], np.zeros((1, 1)), np.array([[0, 0, 0]]))
    with pytest.raises(ValueError, match="label bits"):
        relabel(ds, Z[:2], centroids)


def test_kmeans_input_validation():
    pts = np.random.default_rng(0).random((5, 2))
    with pytest.raises(ValueError, match="matrix"):
        kmeans(np.ones(5), 2)
    with pytest.raises(ValueError, match="positive"):
        kmeans(pts, 0)
    with pytest.raises(ValueError, match="cannot fill"):
        kmeans(pts, 6)


def test_kmeans_is_deterministic():
    pts = np.random.default_rng(1).random((30, 3))
    a = kmeans(pts, 4, seed=9)
    b = kmeans(pts, 4, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


def test_objective_trace_never_increases():
    rng = np.random.default_rng(2)
    for seed in range(8):
        pts = rng.standard_normal((40, 3))
        res = kmeans(pts, 5, seed=seed)
        trace = res.objective_trace
        assert trace.shape[0] == res.n_iter >= 1
        assert np.all(np.diff(trace) <= 1e-12)
        assert res.inertia == trace[-1]


def test_two_blob_recovery():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 0.1, (20, 2))
    b = rng.normal(5.0, 0.1, (20, 2)) + np.array([0.0, 5.0])
    pts = np.vstack([a, b])
    res = kmeans(pts, 2, seed=0)
    first_half = set(res.assignments[:20].tolist())
    second_half = set(res.assignments[20:].tolist())
    assert len(first_half) == 1 and len(second_half) == 1
    assert first_half != second_half
    order = np.argsort(res.centroids[:, 0])
    assert np.allclose(res.centroids[order[0]], a.mean(axis=0), atol=0.05)
    assert np.allclose(res.centroids[order[1]], b.mean(axis=0), atol=0.05)


def test_lloyd_repairs_empty_clusters():
    # All starting centroids sit on top of each other far from the data, so
    # the first assignment leaves every cluster but 0 empty and the repair
    # must fire once for each; later iterations leave none empty.
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
    for n_clusters in (2, 3):
        centroids = np.array([[-10.0, 1e-9 * k] for k in range(n_clusters)])
        before = diagnostics.snapshot().get("kmeans_empty_cluster_repaired", 0)
        res = _lloyd(pts, centroids, max_iter=20, tol=1e-9)
        assert diagnostics.snapshot().get("kmeans_empty_cluster_repaired", 0) == before + n_clusters - 1
        counts = np.bincount(res.assignments, minlength=n_clusters)
        assert np.all(counts > 0)
        assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_kmeans_without_empty_clusters_counts_no_repair():
    pts = np.random.default_rng(5).standard_normal((40, 3))
    before = diagnostics.snapshot().get("kmeans_empty_cluster_repaired", 0)
    kmeans(pts, 4, seed=1)
    assert diagnostics.snapshot().get("kmeans_empty_cluster_repaired", 0) == before


def test_kmeans_of_coincident_points():
    """When every point coincides, the ++ init draws its later centroids uniformly, and
    Lloyd repairs the clusters no point was assigned to."""
    res = kmeans(np.ones((4, 2)), 3, seed=0)
    assert np.array_equal(res.centroids, np.ones((3, 2)))
    assert sorted(np.bincount(res.assignments, minlength=3).tolist()) == [1, 1, 2]
    assert res.inertia == 0.0


def test_singleton_clusters_reachable():
    pts = np.array([[0.0], [0.0], [10.0]])
    res = kmeans(pts, 2, seed=0)
    assert set(np.bincount(res.assignments).tolist()) == {1, 2}
    assert res.inertia == pytest.approx(0.0)


def _tiny_dataset():
    vocab = synthetic_vocabulary(2, 2)
    labels = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]])
    return Dataset(vocab, ["s0", "s1", "s2"], ["subj0", "subj0", "subj1"], np.zeros((3, 3)), labels)


def test_relabel_assigns_nearest_centroid():
    ds = _tiny_dataset()
    Z = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.0], [6.0, 0.0]])
    out = relabel(ds, Z, np.array([[1.0, 0.0], [5.0, 0.0]]))
    # Sample means along x: (0+2)/2=1, (4+6)/2=5, (0+6)/2=3 (tie -> cluster 0).
    assert out.tolist() == [0, 1, 0]


def relabel_loop_reference(dataset, vectors, centroids):
    """Reference: the per-sample loop relabel replaced, one mean of the set label rows per sample."""
    means = np.stack([vectors[np.flatnonzero(bits)].mean(axis=0) for bits in dataset.labels])
    return _squared_distances(means, centroids).argmin(axis=1)


def test_relabel_matches_loop_reference():
    for seed in range(4):
        for sp_count, as_count, d, n_clusters in ((10, 29, 32, 10), (3, 6, 2, 4), (40, 160, 8, 12)):
            ds = generate_synthetic(SyntheticConfig(
                n_samples=300, sp_count=sp_count, as_count=as_count, feature_dim=4, seed=seed,
            ))
            Z = np.random.default_rng(seed).standard_normal((sp_count + as_count, d))
            centroids = kmeans(Z, n_clusters, seed=seed).centroids
            got = relabel(ds, Z, centroids)
            assert got.dtype == np.int64
            assert np.array_equal(got, relabel_loop_reference(ds, Z, centroids))


def test_relabel_rejects_width_mismatch():
    ds = _tiny_dataset()
    with pytest.raises(ValueError, match="width"):
        relabel(ds, np.zeros((4, 2)), np.array([[0.0, 0.0, 0.0]]))


def test_cluster_csv_writers(tmp_path):
    ds = _tiny_dataset()
    Z = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.0], [6.0, 0.0]])
    centroids = np.array([[1.0, 0.5], [5.0, -0.25]])
    out = relabel(ds, Z, centroids)
    apath = tmp_path / "assignments.csv"
    cpath = tmp_path / "centroids.csv"
    write_assignments_csv(apath, ds.ids, out)
    write_centroids_csv(cpath, centroids)
    alines = apath.read_text(encoding="utf-8").splitlines()
    assert alines[0] == "id,cluster"
    assert alines[1] == "s0,0"
    clines = cpath.read_text(encoding="utf-8").splitlines()
    assert clines[0] == "cluster,c0,c1"
    assert clines[1] == "0,1.0,0.5"
