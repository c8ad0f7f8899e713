"""Multi-label BCE, the pairwise contrastive term, and their gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics

NORMALIZATIONS = ("pair_mean", "raw_sum")
CONTRASTIVE_MODES = ("none", "vanilla", "cluster_relabeled")


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.75       # weight on (1 - sim) for same-label pairs
    beta: float = 0.25        # weight on (1 + sim) for different-label pairs
    lam: float = 0.1          # contrastive weight in the total loss
    contrastive_normalization: str = "pair_mean"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.contrastive_normalization not in NORMALIZATIONS:
            raise ValueError(
                f"contrastive_normalization must be one of {NORMALIZATIONS}"
            )


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mll_loss(scores: np.ndarray, targets: np.ndarray) -> float:
    """Mean over classes (and samples, for a batch) of stabilized BCE on raw scores."""
    return mll_loss_and_grad(scores, targets)[0]


def mll_loss_and_grad(scores: np.ndarray, targets: np.ndarray):
    """(loss, d loss / d scores); the gradient is (sigmoid(s) - y) / count."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores {s.shape} and targets {y.shape} differ")
    bce = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    grad = (sigmoid(s) - y) / s.size
    return float(bce.mean()), grad


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors; a zero-norm operand yields 0 and is counted."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        diagnostics.record("cosine_zero_norm")
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def _unit_rows(X: np.ndarray):
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0.0
    if zero.any():
        diagnostics.record("contrastive_zero_norm", int(zero.sum()))
    safe = np.where(zero, 1.0, norms)
    U = X / safe[:, None]
    U[zero] = 0.0
    return U, safe, zero


def _pair_terms(n: int, labels: np.ndarray, cfg: LossConfig):
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(n, dtype=bool)
    pos = same & off
    neg = ~same
    if cfg.contrastive_normalization == "pair_mean":
        n_pos = int(pos.sum())
        n_neg = int(neg.sum())
        w_pos = 1.0 / n_pos if n_pos else 0.0
        w_neg = 1.0 / n_neg if n_neg else 0.0
    else:
        w_pos = w_neg = 1.0
    return pos, neg, w_pos, w_neg


def contrastive_loss(representations: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> float:
    """Pull same-label pairs together, push different-label pairs apart.

    Over ordered within-batch pairs: alpha (1 - sim) on same-label pairs and
    beta (1 + sim) on different-label pairs, either summed raw or averaged
    per pair group. A batch of fewer than two samples contributes 0.
    """
    return contrastive_loss_and_grad(representations, labels, cfg)[0]


def contrastive_loss_and_grad(representations: np.ndarray, labels: np.ndarray, cfg: LossConfig):
    """(loss, d loss / d representations); zero-norm rows get a zero gradient."""
    X = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels)
    n = X.shape[0]
    if labels.shape[0] != n:
        raise ValueError("one label per representation required")
    if n < 2:
        diagnostics.record("contrastive_undersized_batch")
        return 0.0, np.zeros_like(X)
    U, safe, zero = _unit_rows(X)
    S = np.clip(U @ U.T, -1.0, 1.0)
    pos, neg, w_pos, w_neg = _pair_terms(n, labels, cfg)
    loss = float(
        cfg.alpha * w_pos * (1.0 - S)[pos].sum() + cfg.beta * w_neg * (1.0 + S)[neg].sum()
    )
    # loss is linear in the similarity entries: dL/dS_ij is a constant per pair
    G = np.zeros((n, n))
    G[pos] = -cfg.alpha * w_pos
    G[neg] = cfg.beta * w_neg
    dU = (G + G.T) @ U
    dX = (dU - (U * dU).sum(axis=1)[:, None] * U) / safe[:, None]
    dX[zero] = 0.0
    return loss, dX
