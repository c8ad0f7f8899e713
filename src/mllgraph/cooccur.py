"""Label co-occurrence counts, count weighting, and the correlation matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config, POSITIVE, one_of, within
from .corpus import Dataset


# Below this many rows the label product runs in float32: every partial sum
# of Y^T Y is then an integer below 2^24, which float32 holds exactly.
_FLOAT32_EXACT_ROWS = 2 ** 24


def build_cooccurrence(dataset: Dataset) -> np.ndarray:
    """Count joint label occurrences: the (C, C) int64 X = Y^T Y over the 0/1 label matrix.

    X is symmetric and nonnegative, and its diagonal holds the class totals.

    The product runs in floating point so that it goes through BLAS (an
    integer matmul does not). Every partial sum is an integer no larger
    than the row count n, so it is exact in float32 while n is below
    `_FLOAT32_EXACT_ROWS` and in float64 (exact below 2^53) from there on.
    """
    if len(dataset) == 0:
        raise ValueError("cannot build co-occurrence counts from an empty dataset")
    Y = dataset.labels_matrix()
    Y = Y.astype(np.float32 if len(Y) < _FLOAT32_EXACT_ROWS else np.float64)
    product = Y.T @ Y
    del Y  # the float labels go before the int64 result is made
    return product.astype(np.int64)


@dataclass(frozen=True)
class WeightingConfig(Config):
    """Saturating count weight: (x / x_max)^exponent below x_max, 1 above."""

    x_max: float = field(default=100.0, metadata=POSITIVE)
    exponent: float = field(default=0.75, metadata=within(0, 1, "(]"))


def weight_matrix(counts: np.ndarray, cfg: WeightingConfig) -> np.ndarray:
    """f(X) = min(X / x_max, 1)^exponent on the positive counts, 0.0 on the others.

    Integer counts are divided as they are, without a float copy. The zero
    cells (and NaN ones) keep the 0.0 the buffer starts with.
    """
    X = np.asarray(counts)
    if np.any(X < 0):
        raise ValueError("counts must be nonnegative")
    positive = X > 0
    W = np.divide(X, cfg.x_max, out=np.zeros(X.shape), where=positive)
    np.minimum(W, 1.0, out=W)
    return np.power(W, cfg.exponent, out=W, where=positive)


@dataclass(frozen=True)
class AdjacencyConfig(Config):
    """Conditional-probability adjacency with optional binarize/reweight step.

    mode "binarized": threshold P(j|i) at `threshold`, then spread weight p
    = `reweight` over the surviving neighbors and keep 1 - p on the
    diagonal. mode "conditional" keeps the raw conditional probabilities
    with a unit diagonal.
    """

    threshold: float = field(default=0.4, metadata=within(0, 1))
    reweight: float = field(default=0.2, metadata=within(0, 1))
    mode: str = field(default="binarized", metadata=one_of("binarized", "conditional"))


def conditional_probabilities(X: np.ndarray) -> np.ndarray:
    """P[i, j] = X_ij / N_i off the diagonal of the counts X; rows of never-seen classes are zero.

    The integer counts are divided straight into the one float64 result.
    """
    X = np.asarray(X)
    N = np.diagonal(X)[:, None]
    P = np.divide(X, N, out=np.zeros(X.shape), where=N > 0)
    np.fill_diagonal(P, 0.0)
    return P


def build_adjacency(X: np.ndarray, cfg: AdjacencyConfig) -> np.ndarray:
    """The adjacency of `cfg.mode`, built in the buffer of the conditional probabilities.

    Binarized, a kept cell holds reweight / (its row's count of kept
    cells): the same bits as spreading reweight * 1.0 over that count.
    """
    A = conditional_probabilities(X)
    if cfg.mode == "conditional":
        np.fill_diagonal(A, 1.0)
        return A
    keep = A >= cfg.threshold
    np.fill_diagonal(keep, False)
    kept = keep.sum(axis=1)
    share = cfg.reweight / np.maximum(kept, 1)  # rows without a kept cell take no share
    np.multiply(keep, share[:, None], out=A)
    np.fill_diagonal(A, 1.0 - cfg.reweight)
    return A


def normalize_adjacency(A: np.ndarray) -> np.ndarray:
    """D^(-1/2) A D^(-1/2) with D the row-sum degree matrix, as one new array.

    Each cell is (d_i A_ij) d_j. Zero-sum rows stay zero off the diagonal
    and get a unit self-loop so isolated classes pass through the
    propagation unchanged.
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
    B = np.multiply(inv_sqrt[:, None], A)
    B *= inv_sqrt[None, :]
    isolated = np.flatnonzero(~nz)
    B[isolated, isolated] = 1.0
    return B
