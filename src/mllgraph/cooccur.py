"""Label co-occurrence counts, count weighting, and the correlation matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Symmetric label co-occurrence counts; the diagonal holds class totals."""

    counts: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.counts, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ValueError("co-occurrence counts must be square")
        if np.any(X < 0):
            raise ValueError("co-occurrence counts must be nonnegative")
        if not np.array_equal(X, X.T):
            raise ValueError("co-occurrence counts must be symmetric")
        object.__setattr__(self, "counts", X)


def build_cooccurrence(dataset: Dataset) -> CooccurrenceMatrix:
    """Count joint label occurrences: X = Y^T Y over the 0/1 label matrix.

    The product runs in float64 so that it goes through BLAS (an integer
    matmul does not); it is exact because every partial sum is an integer
    no larger than the sample count, far below 2^53.
    """
    if len(dataset) == 0:
        raise ValueError("cannot build co-occurrence counts from an empty dataset")
    Y = dataset.labels_matrix().astype(np.float64)
    return CooccurrenceMatrix((Y.T @ Y).astype(np.int64))


@dataclass(frozen=True)
class WeightingConfig:
    """Saturating count weight: (x / x_max)^exponent below x_max, 1 above."""

    x_max: float = 100.0
    exponent: float = 0.75

    def __post_init__(self):
        if self.x_max <= 0:
            raise ValueError("x_max must be positive")
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError("exponent must lie in (0, 1]")


def weight_matrix(counts: np.ndarray, cfg: WeightingConfig) -> np.ndarray:
    X = np.asarray(counts, dtype=np.float64)
    if np.any(X < 0):
        raise ValueError("counts must be nonnegative")
    # the power only over the nonzero counts; the zero cells keep the 0.0 of `out`
    return np.power(np.minimum(X / cfg.x_max, 1.0), cfg.exponent, out=np.zeros_like(X), where=X > 0)


@dataclass(frozen=True)
class AdjacencyConfig:
    """Conditional-probability adjacency with optional binarize/reweight step.

    mode "binarized": threshold P(j|i) at `threshold`, then spread weight p
    = `reweight` over the surviving neighbors and keep 1 - p on the
    diagonal. mode "conditional" keeps the raw conditional probabilities
    with a unit diagonal.
    """

    threshold: float = 0.4
    reweight: float = 0.2
    mode: str = "binarized"

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        if not 0.0 <= self.reweight <= 1.0:
            raise ValueError("reweight must be within [0, 1]")
        if self.mode not in ("binarized", "conditional"):
            raise ValueError(f"unknown adjacency mode: {self.mode!r}")


def conditional_probabilities(X: CooccurrenceMatrix) -> np.ndarray:
    """P[i, j] = X_ij / N_i off the diagonal; rows of never-seen classes are zero."""
    counts = X.counts.astype(np.float64)
    N = np.diagonal(counts).copy()
    P = np.zeros_like(counts)
    nz = N > 0
    P[nz] = counts[nz] / N[nz, None]
    np.fill_diagonal(P, 0.0)
    return P


def build_adjacency(X: CooccurrenceMatrix, cfg: AdjacencyConfig) -> np.ndarray:
    P = conditional_probabilities(X)
    if cfg.mode == "conditional":
        A = P.copy()
        np.fill_diagonal(A, 1.0)
        return A
    A = (P >= cfg.threshold).astype(np.float64)
    np.fill_diagonal(A, 0.0)
    row_sums = A.sum(axis=1)
    out = np.zeros_like(A)
    nz = row_sums > 0
    out[nz] = cfg.reweight * A[nz] / row_sums[nz, None]
    np.fill_diagonal(out, 1.0 - cfg.reweight)
    return out


@dataclass(frozen=True)
class NormalizedCorrelation:
    """Symmetrically normalized adjacency ready for graph propagation."""

    matrix: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.all(np.isfinite(B)):
            raise ValueError("correlation matrix must be finite")
        object.__setattr__(self, "matrix", B)


def normalize_adjacency(A: np.ndarray) -> NormalizedCorrelation:
    """D^(-1/2) A D^(-1/2) with D the row-sum degree matrix.

    Zero-sum rows stay zero off the diagonal and get a unit self-loop so
    isolated classes pass through the propagation unchanged.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency must be square")
    if np.any(A < 0):
        raise ValueError("adjacency entries must be nonnegative")
    deg = A.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    B = inv_sqrt[:, None] * A * inv_sqrt[None, :]
    for i in np.flatnonzero(~nz):
        B[i, i] = 1.0
    return NormalizedCorrelation(B)


def write_matrix_csv(path, matrix: np.ndarray, names) -> None:
    """Row-major CSV with the label names as header; integer matrices stay integer.

    The text is `format_csv_row`'s (`str` of each int, `repr` of each
    float), but label statistics are mostly zeros, so only a row's nonzero
    cells are formatted and every other cell is the one zero text. A float
    is zero by its bits, so -0.0 keeps its own text.
    """
    M = np.asarray(matrix)
    if np.issubdtype(M.dtype, np.integer):
        zero, bits = "0", M
    else:
        M = np.ascontiguousarray(M, dtype=np.float64)
        zero, bits = "0.0", M.view(np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row, row_bits in zip(M, bits):
            nz = np.flatnonzero(row_bits)
            cells = [zero] * row.size
            for j, text in zip(nz.tolist(), map(repr, row[nz].tolist())):
                cells[j] = text
            fh.write(",".join(cells) + "\n")
