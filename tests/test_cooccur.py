import tracemalloc

import numpy as np
import pytest

from mllgraph import cooccur
from mllgraph.artifacts import write_matrix_csv
from mllgraph.cooccur import (
    AdjacencyConfig,
    WeightingConfig,
    build_adjacency,
    build_cooccurrence,
    conditional_probabilities,
    normalize_adjacency,
    weight_matrix,
)
from mllgraph.corpus import Dataset, LabelVocabulary


def tiny_dataset():
    vocab = LabelVocabulary((("A", "SP"), ("B", "SP"), ("x", "AS")))
    rows = [
        [1, 0, 1],
        [1, 0, 1],
        [0, 1, 0],
        [1, 1, 1],
    ]
    n = len(rows)
    return Dataset(vocab, [f"s{i}" for i in range(n)], [f"p{i}" for i in range(n)],
                   np.zeros((n, 2)), np.array(rows, dtype=np.uint8))


def test_build_cooccurrence_matches_hand_count():
    X = build_cooccurrence(tiny_dataset())
    # class totals on the diagonal, joint counts off it
    expected = np.array([
        [3, 1, 3],
        [1, 2, 1],
        [3, 1, 3],
    ])
    assert np.array_equal(X, expected)


def test_build_cooccurrence_matches_integer_product():
    rng = np.random.default_rng(8)
    for n, C in ((1, 2), (7, 3), (60, 11), (300, 40)):
        vocab = LabelVocabulary(tuple((f"c{j}", "AS" if j else "SP") for j in range(C)))
        Y = (rng.random((n, C)) < rng.uniform(0.05, 0.9)).astype(np.uint8)
        Y[np.flatnonzero(Y.sum(axis=1) == 0), 0] = 1
        data = Dataset(vocab, [f"s{i}" for i in range(n)], ["p"] * n, np.zeros((n, 1)), Y)
        X = build_cooccurrence(data)
        assert X.dtype == np.int64
        Yi = Y.astype(np.int64)
        assert np.array_equal(X, Yi.T @ Yi)


def random_label_dataset(n, C, density, seed):
    rng = np.random.default_rng(seed)
    vocab = LabelVocabulary(tuple((f"c{j}", "AS" if j else "SP") for j in range(C)))
    Y = (rng.random((n, C)) < density).astype(np.uint8)
    Y[:, 0] = 1
    return Dataset(vocab, [f"s{i}" for i in range(n)], ["p"] * n, np.zeros((n, 1)), Y)


def test_build_cooccurrence_float64_fallback_gives_the_same_counts(monkeypatch):
    """At or above the module's row bound the product runs in float64, below it in float32."""
    data = random_label_dataset(300, 40, 0.3, seed=9)
    casts = []

    class Labels(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            casts.append(np.dtype(dtype))
            return np.asarray(self).astype(dtype, *args, **kwargs)

    monkeypatch.setattr(Dataset, "labels_matrix", lambda self: self.labels.view(Labels))
    counts = {}
    for bound in (len(data) + 1, len(data), 1):
        monkeypatch.setattr(cooccur, "_FLOAT32_EXACT_ROWS", bound)
        counts[bound] = build_cooccurrence(data)
    assert casts == [np.float32, np.float64, np.float64]
    Yi = data.labels.astype(np.int64)
    for X in counts.values():
        assert X.dtype == np.int64 and np.array_equal(X, Yi.T @ Yi)


def test_build_cooccurrence_peak_memory():
    """At 1000 classes the counts peak below the int64 result, one float32 (C, C)
    product and the labels in float32; a float64 product and labels are more."""
    n, C = 450, 1000
    data = random_label_dataset(n, C, 0.01, seed=4)
    tracemalloc.start()
    try:
        X = build_cooccurrence(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.dtype == np.int64
    assert peak < 8 * C * C + 4 * C * C + 4 * n * C, f"peak {peak} bytes"


def test_build_cooccurrence_rejects_empty():
    ds = Dataset(LabelVocabulary((("A", "SP"), ("B", "SP"))), [], [], np.zeros((0, 0)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty dataset"):
        build_cooccurrence(ds)


# ----------------------------------------------------------------- weighting

def weight(x: float, cfg: WeightingConfig) -> float:
    """Scalar reference for weight_matrix."""
    if x < 0:
        raise ValueError("count must be nonnegative")
    if x == 0:
        return 0.0
    if x >= cfg.x_max:
        return 1.0
    return float((x / cfg.x_max) ** cfg.exponent)


def test_weight_endpoints_and_midpoint():
    cfg = WeightingConfig()  # x_max=100, exponent=0.75
    assert weight(0, cfg) == 0.0
    assert weight(100, cfg) == 1.0
    assert weight(250, cfg) == 1.0
    assert weight(50, cfg) == pytest.approx(0.5**0.75, abs=1e-15)
    assert weight(50, cfg) == pytest.approx(0.5946035575013605, abs=1e-15)


def test_weight_is_monotone_below_cap():
    cfg = WeightingConfig(x_max=10, exponent=0.5)
    vals = [weight(x, cfg) for x in range(11)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_weight_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        weight(-1, WeightingConfig())
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        weight_matrix(np.array([[1, -1], [-1, 1]]), WeightingConfig())


def test_weight_matrix_matches_scalar():
    cfg = WeightingConfig(x_max=20, exponent=0.75)
    X = np.array([[0, 3], [25, 20]], dtype=float)
    W = weight_matrix(X, cfg)
    for i in range(2):
        for j in range(2):
            assert W[i, j] == pytest.approx(weight(X[i, j], cfg), abs=1e-15)


def test_weight_matrix_bit_equal_to_masked_power():
    # mostly zeros, with counts on both sides of x_max
    rng = np.random.default_rng(5)
    X = np.where(rng.random((60, 60)) < 0.1, rng.integers(1, 400, (60, 60)), 0)
    Xf = (X + X.T).astype(np.float64)
    for cfg in (WeightingConfig(), WeightingConfig(x_max=7, exponent=0.5), WeightingConfig(exponent=1.0)):
        want = np.where(Xf > 0, np.minimum(Xf / cfg.x_max, 1.0) ** cfg.exponent, 0.0)
        assert weight_matrix(Xf, cfg).tobytes() == want.tobytes()


def test_weighting_config_validation():
    with pytest.raises(ValueError, match="x_max"):
        WeightingConfig(x_max=0)
    with pytest.raises(ValueError, match="exponent"):
        WeightingConfig(exponent=1.5)


# ----------------------------------------------------------------- adjacency

def test_conditional_probabilities_hand_case():
    X = np.array([[10, 5, 0], [5, 8, 0], [0, 0, 4]])
    P = conditional_probabilities(X)
    assert P[0, 1] == pytest.approx(0.5)
    assert P[1, 0] == pytest.approx(5 / 8)
    assert P[0, 2] == 0.0
    assert np.all(np.diagonal(P) == 0.0)


def test_conditional_probabilities_zero_count_class():
    X = np.array([[0, 0], [0, 3]])
    P = conditional_probabilities(X)
    assert np.all(P[0] == 0.0)


def test_build_adjacency_binarized_hand_case():
    X = np.array([[10, 5, 0], [5, 8, 0], [0, 0, 4]])
    A = build_adjacency(X, AdjacencyConfig(threshold=0.4, reweight=0.2))
    # classes 0 and 1 are each other's only neighbor; class 2 is isolated
    assert A[0, 1] == pytest.approx(0.2)
    assert A[1, 0] == pytest.approx(0.2)
    assert A[0, 0] == pytest.approx(0.8)
    assert A[2, 2] == pytest.approx(0.8)
    assert A[2, 0] == 0.0 and A[2, 1] == 0.0


def test_build_adjacency_spreads_reweight_over_neighbors():
    counts = np.array([
        [10, 6, 6, 0],
        [6, 10, 0, 0],
        [6, 0, 10, 0],
        [0, 0, 0, 2],
    ])
    A = build_adjacency(counts, AdjacencyConfig(threshold=0.5, reweight=0.2))
    assert A[0, 1] == pytest.approx(0.1)
    assert A[0, 2] == pytest.approx(0.1)
    assert A[0].sum() == pytest.approx(1.0)


def test_build_adjacency_conditional_mode():
    X = np.array([[10, 5], [5, 8]])
    A = build_adjacency(X, AdjacencyConfig(mode="conditional"))
    assert A[0, 1] == pytest.approx(0.5)
    assert A[1, 0] == pytest.approx(5 / 8)
    assert A[0, 0] == 1.0 and A[1, 1] == 1.0


def test_adjacency_config_validation():
    with pytest.raises(ValueError, match="threshold"):
        AdjacencyConfig(threshold=1.5)
    with pytest.raises(ValueError, match="reweight"):
        AdjacencyConfig(reweight=-0.1)
    with pytest.raises(ValueError, match="mode"):
        AdjacencyConfig(mode="raw")


# ------------------------------------------------------------- normalization

def test_normalize_adjacency_hand_case():
    A = np.array([[0.8, 0.2], [0.2, 0.8]])
    B = normalize_adjacency(A)
    # degrees are 1.0, so normalization leaves the matrix unchanged
    assert np.allclose(B, A)


def test_normalize_adjacency_uses_inverse_sqrt_degrees():
    A = np.array([[0.0, 2.0], [2.0, 2.0]])
    B = normalize_adjacency(A)
    d = np.array([2.0, 4.0])
    expected = A / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    assert np.allclose(B, expected)


def test_normalize_adjacency_isolated_row_keeps_identity():
    A = np.array([[0.0, 0.0], [0.0, 3.0]])
    B = normalize_adjacency(A)
    assert B[0, 0] == 1.0
    assert B[0, 1] == 0.0


def test_normalize_adjacency_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        normalize_adjacency(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    for shape in ((2, 3), (4,)):
        with pytest.raises(ValueError, match="adjacency must be square"):
            normalize_adjacency(np.ones(shape))


def test_write_matrix_csv_roundtrips_floats(tmp_path):
    M = np.array([[0.1, 2.0 / 3.0], [1e-17, 5.0]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, ["a", "b"])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back, M)


def test_write_matrix_csv_integer_mode(tmp_path):
    M = np.array([[1, 2], [3, 4]], dtype=np.int64)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, ["a", "b"])
    assert path.read_text() == "a,b\n1,2\n3,4\n"
