"""Multi-label BCE, the pairwise contrastive term, and their gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .config import Config, NONNEGATIVE, one_of

NORMALIZATIONS = ("pair_mean", "raw_sum")


@dataclass(frozen=True)
class LossConfig(Config):
    alpha: float = field(default=0.75, metadata=NONNEGATIVE)  # weight on (1 - sim) for same-label pairs
    beta: float = field(default=0.25, metadata=NONNEGATIVE)   # weight on (1 + sim) for different-label pairs
    lam: float = field(default=0.1, metadata=NONNEGATIVE)     # contrastive weight in the total loss
    contrastive_normalization: str = field(default="pair_mean", metadata=one_of(*NORMALIZATIONS))


_SIGMOID_BLOCK = 1 << 16  # elements per row block of sigmoid's temporaries


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of each element, written into `out` (which may be x) when given.

    It runs over blocks of rows of about _SIGMOID_BLOCK elements, so its
    temporaries stay that size however large x is.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != np.float64:
        raise ValueError(f"out {out.dtype} {out.shape} cannot hold sigmoid of float64 {x.shape}")
    rows, out_rows = np.atleast_1d(x, out)  # a 0-d x is one row of one element
    step = max(1, _SIGMOID_BLOCK // max(1, math.prod(rows.shape[1:])))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        e = np.abs(rows[block])
        np.negative(e, out=e)
        _sigmoid_from(rows[block], np.exp(e, out=e), out_rows[block])
    return out


def _sigmoid_from(x: np.ndarray, e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigmoid(x) into `out` given e = exp(-|x|): 1 / (1 + e) where x >= 0, else e / (1 + e).

    out may be x itself: the numerator is selected by the sign of x before
    out is written.
    """
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def mll_loss_and_grad(scores: np.ndarray, targets: np.ndarray):
    """(loss, d loss / d scores): mean stabilized BCE on raw scores, and (sigmoid(s) - y) / count."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores {s.shape} and targets {y.shape} differ")
    e = np.exp(-np.abs(s))
    bce = np.maximum(s, 0.0) - s * y + np.log1p(e)
    grad = _sigmoid_from(s, e, np.empty_like(s))
    grad -= y
    grad /= s.size
    return float(bce.sum() / bce.size), grad  # bce.mean() without its wrapper


def _unit_rows(X: np.ndarray):
    """(X with unit rows, the norms divided by, the zero-norm rows or None).

    A zero row stays zero: it is divided by 1 and then masked.
    """
    norms = np.sqrt((X * X).sum(axis=1))  # what np.linalg.norm(X, axis=1) computes
    zero = norms == 0.0
    if not zero.any():
        return X / norms[:, None], norms, None
    diagnostics.record("contrastive_zero_norm", int(zero.sum()))
    safe = np.where(zero, 1.0, norms)
    U = X / safe[:, None]
    U[zero] = 0.0
    return U, safe, zero


@dataclass(frozen=True)
class PairTerms:
    """The label-only part of one batch's contrastive term.

    G is twice the constant dL/dS: 2 push on different-label pairs, -2 pull
    on same-label pairs and 0 on the diagonal, where pull and push are
    alpha and beta times their pair weights. offset is pull n_pos + push
    n_neg, the loss's constant part over the n_pos same-label
    (off-diagonal) and n_neg different-label ordered pairs.
    """

    G: np.ndarray
    offset: float


def _stacked_pair_terms(labels: np.ndarray, cfg: LossConfig) -> list:
    """PairTerms of each row of a (k, b) label array, built as one (k, b, b) stack."""
    k, b = labels.shape
    same = labels[:, :, None] == labels[:, None, :]
    n_same = np.count_nonzero(same, axis=(1, 2))
    n_pos = n_same - b
    n_neg = b * b - n_same
    if cfg.contrastive_normalization == "pair_mean":
        w_pos = np.divide(1.0, n_pos, out=np.zeros(k), where=n_pos > 0)
        w_neg = np.divide(1.0, n_neg, out=np.zeros(k), where=n_neg > 0)
    else:
        w_pos = w_neg = np.ones(k)
    pull = cfg.alpha * w_pos
    push = cfg.beta * w_neg
    offset = pull * n_pos + push * n_neg
    G = np.where(same, (2.0 * -pull)[:, None, None], (2.0 * push)[:, None, None])
    diag = np.arange(b)
    G[:, diag, diag] = 0.0
    return [PairTerms(G[i], float(offset[i])) for i in range(k)]


def epoch_pair_terms(labels: np.ndarray, batch_size: int, cfg: LossConfig) -> list:
    """PairTerms of each batch labels[j * batch_size:(j + 1) * batch_size], in order.

    The full batches are built as one stack, a shorter last batch on its own.
    A batch size past the label count gives one batch of them all.
    """
    labels = np.asarray(labels)
    batch_size = min(batch_size, max(len(labels), 1))
    n_full = len(labels) // batch_size
    cut = n_full * batch_size
    terms = _stacked_pair_terms(labels[:cut].reshape(n_full, batch_size), cfg)
    if cut < len(labels):
        terms += _stacked_pair_terms(labels[None, cut:], cfg)
    return terms


def contrastive_loss_and_grad(representations: np.ndarray, terms: PairTerms):
    """(loss, d loss / d representations): pull same-label pairs together, push different-label pairs apart.

    Over ordered within-batch pairs: alpha (1 - cos) on same-label pairs and
    beta (1 + cos) on different-label pairs, either summed raw or averaged
    per pair group, as `terms` (from `epoch_pair_terms`) carry them. A batch
    of fewer than two samples contributes 0; a zero-norm row has cosine 0
    with every row and gets a zero gradient.
    """
    X = np.asarray(representations, dtype=np.float64)
    n = X.shape[0]
    if terms.G.shape != (n, n):
        raise ValueError(
            f"one label per representation required: pair terms for {terms.G.shape[0]} labels, "
            f"{n} representations"
        )
    if n < 2:
        diagnostics.record("contrastive_undersized_batch")
        return 0.0, np.zeros_like(X)
    U, safe, zero = _unit_rows(X)
    # The loss is offset + sum of W * S over the pairs, with S = U U^T and
    # W = G / 2, so dL/dS is the constant W. W is symmetric, so the
    # (W + W.T) U of the chain rule is G U, exactly, and the pair sum is half
    # the sum of the row dots r = (U * G U).sum(axis=1) the gradient forms
    # anyway. S itself is never formed.
    dU = terms.G @ U
    r = (U * dU).sum(axis=1)
    loss = float(terms.offset + 0.5 * r.sum())
    dX = (dU - r[:, None] * U) / safe[:, None]
    if zero is not None:
        dX[zero] = 0.0
    return loss, dX
