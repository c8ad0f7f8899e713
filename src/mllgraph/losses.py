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
    return _sigmoid_from(x, np.exp(-np.abs(x)))


def _sigmoid_from(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(x) given e = exp(-|x|): 1 / (1 + e) where x >= 0, else e / (1 + e)."""
    d = 1.0 + e
    out = np.divide(e, d, out=np.empty_like(x))
    np.divide(1.0, d, out=out, where=x >= 0)
    return out


def mll_loss_and_grad(scores: np.ndarray, targets: np.ndarray):
    """(loss, d loss / d scores): mean stabilized BCE on raw scores, and (sigmoid(s) - y) / count."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores {s.shape} and targets {y.shape} differ")
    e = np.exp(-np.abs(s))
    bce = np.maximum(s, 0.0) - s * y + np.log1p(e)
    grad = _sigmoid_from(s, e)
    grad -= y
    grad /= s.size
    return float(bce.sum() / bce.size), grad  # bce.mean() without its wrapper


def _unit_rows(X: np.ndarray):
    norms = np.sqrt((X * X).sum(axis=1))  # what np.linalg.norm(X, axis=1) computes
    zero = norms == 0.0
    if zero.any():
        diagnostics.record("contrastive_zero_norm", int(zero.sum()))
    safe = np.where(zero, 1.0, norms)
    U = X / safe[:, None]
    U[zero] = 0.0
    return U, safe, zero


def _pair_terms(labels: np.ndarray, cfg: LossConfig):
    pos = labels[:, None] == labels[None, :]
    neg = ~pos
    np.fill_diagonal(pos, False)
    if cfg.contrastive_normalization == "pair_mean":
        n_pos = np.count_nonzero(pos)
        n_neg = np.count_nonzero(neg)
        w_pos = 1.0 / n_pos if n_pos else 0.0
        w_neg = 1.0 / n_neg if n_neg else 0.0
    else:
        w_pos = w_neg = 1.0
    return pos, neg, w_pos, w_neg


def contrastive_loss_and_grad(representations: np.ndarray, labels: np.ndarray, cfg: LossConfig):
    """(loss, d loss / d representations): pull same-label pairs together, push different-label pairs apart.

    Over ordered within-batch pairs: alpha (1 - cos) on same-label pairs and
    beta (1 + cos) on different-label pairs, either summed raw or averaged
    per pair group. A batch of fewer than two samples contributes 0; a
    zero-norm row has cosine 0 with every row and gets a zero gradient.
    """
    X = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels)
    n = X.shape[0]
    if labels.shape[0] != n:
        raise ValueError("one label per representation required")
    if n < 2:
        diagnostics.record("contrastive_undersized_batch")
        return 0.0, np.zeros_like(X)
    U, safe, zero = _unit_rows(X)
    S = U @ U.T
    np.minimum(np.maximum(S, -1.0, out=S), 1.0, out=S)  # np.clip(S, -1, 1) in place
    pos, neg, w_pos, w_neg = _pair_terms(labels, cfg)
    loss = float(
        cfg.alpha * w_pos * (1.0 - S[pos]).sum() + cfg.beta * w_neg * (1.0 + S[neg]).sum()
    )
    # loss is linear in the similarity entries: dL/dS_ij = G_ij is a constant
    # per pair kind and 0 on the diagonal. G is symmetric, so the (G + G.T) U
    # of the chain rule is 2 G U, exactly.
    G = np.where(neg, 2.0 * (cfg.beta * w_neg), 2.0 * (-cfg.alpha * w_pos))
    np.fill_diagonal(G, 0.0)
    dU = G @ U
    dX = (dU - (U * dU).sum(axis=1)[:, None] * U) / safe[:, None]
    dX[zero] = 0.0
    return loss, dX
