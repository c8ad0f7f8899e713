"""Label embeddings from co-occurrence counts via a weighted log-bilinear fit."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .config import Config, POSITIVE, rule, within
from .cooccur import WeightingConfig, weight_matrix
from .layers import block_views


@dataclass(frozen=True)
class GloveConfig(Config):
    d: int = field(default=32, metadata=rule(lambda d: d >= 2, "is the embedding dimension and must be at least 2"))
    epochs: int = field(default=256, metadata=POSITIVE)
    learning_rate: float = field(default=0.001, metadata=POSITIVE)
    beta1: float = field(default=0.9, metadata=within(0, 1, "[)"))
    beta2: float = field(default=0.999, metadata=within(0, 1, "[)"))
    eps: float = field(default=1e-8, metadata=POSITIVE)
    # the init draws uniform(-s, s), whose width 2s must be a float
    init_scale: float = field(default=0.05, metadata=rule(
        lambda s: 0 < s <= sys.float_info.max / 2, "must be positive and at most half the largest float"))


@dataclass
class EmbeddingParams:
    """Main and context vectors plus their biases."""

    w: np.ndarray
    w_ctx: np.ndarray
    b: np.ndarray
    b_ctx: np.ndarray


class GloveDivergenceError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"objective became non-finite at epoch {epoch}")
        self.epoch = epoch


def _fixed_terms(counts: np.ndarray, wcfg: WeightingConfig):
    """(f(X), log X): the parts of the objective the counts fix, log X 0 on the zero cells.

    Integer counts are read as they are; neither term makes a float copy of them.
    """
    X = np.asarray(counts)
    logX = np.log(X, out=np.zeros(X.shape), where=X > 0)
    return weight_matrix(X, wcfg), logX


def _augmented(C: int, d: int):
    """(flat, A, B~, the EmbeddingParams views): one buffer of ones holding
    A = [w b 1] and B~ = [w~ 1 b~], each (C, d + 2), end to end.

    A B~^T = w w~^T + b 1^T + 1 b~^T, so one product forms the residual with
    both biases, and E B~ and E^T A give the bias gradients beside d w and d w~.
    """
    flat = np.ones(2 * C * (d + 2))
    A, Bt = block_views(flat, ((C, d + 2), (C, d + 2)))
    return flat, A, Bt, _fields(A, Bt)


def _fields(A, Bt) -> EmbeddingParams:
    """w, w~, b and b~ as views of A and B~."""
    d = A.shape[1] - 2
    return EmbeddingParams(w=A[:, :d], w_ctx=Bt[:, :d], b=A[:, d], b_ctx=Bt[:, d + 1])


# Rows of R and E formed at once, so both blocks stay in cache between the
# products that write and read them. On the 1000-class train split of the
# benchmark's wide-labels corpus (450 x 1000, d = 32), with one OpenBLAS
# thread on a 2-vCPU Xeon, one evaluation took 7.8 ms at 16 rows, 8.4 at 32,
# 7.8 at 64, 8.3 at 128, 8.5 at 256 and 12.0 ms as one (C, C) block (medians
# of 20 interleaved rounds), against 11.4 ms for the unblocked form with the
# biases added outside the product. From 16 to 128 rows the time is flat;
# at 64 rows R and E take 0.5 MiB each at C = 1000.
_GLOVE_ROWS = 64


def _loss_and_grad(A, Bt, F, logX, dA, dBt, empty=None) -> float:
    """The loss at A B~^T, with d loss / dA into dA and d loss / dB~ into dBt.

    R = A B~^T - log X and E = f(X) R are formed _GLOVE_ROWS rows at a
    time: each block adds vdot(E, R) to the loss, writes its rows of
    dA = E B~ and adds E^T A[rows] to dB~, and the factor 2 of
    d loss / d R = 2E is applied to the (C, d + 2) gradients afterwards.
    The gradients of the constant columns (E b~ in dA, E^T b in dB~) are
    zeroed, so Adam leaves those columns at exactly 1.

    R is zeroed on the cells of the (C, C) boolean `empty` when it is
    given. Without it, f(X) = 0 on the zero cells leaves E +-0 and
    f(X) R^2 +0 there while R is finite, which is the masked loss and
    gradients; only a non-finite R in a zero cell makes them differ, and
    then the loss is non-finite too.
    """
    C, d = A.shape[0], A.shape[1] - 2
    R = np.empty((min(C, _GLOVE_ROWS), C))
    E = np.empty_like(R)
    part = np.empty_like(dBt)
    dBt[...] = 0.0
    loss = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, C, _GLOVE_ROWS):
            rows = slice(lo, lo + _GLOVE_ROWS)
            a = A[rows]
            r, e = R[:len(a)], E[:len(a)]
            np.matmul(a, Bt.T, out=r)
            r -= logX[rows]
            if empty is not None:
                r[empty[rows]] = 0.0
            np.multiply(F[rows], r, out=e)
            loss += np.vdot(e, r)
            np.matmul(e, Bt, out=dA[rows])
            np.matmul(e.T, a, out=part)
            dBt += part
        dA *= 2.0
        dBt *= 2.0
    dA[:, d + 1] = 0.0
    dBt[:, d] = 0.0
    return float(loss)


@dataclass
class GloveResult:
    embedding: np.ndarray  # (C, d) label embeddings, the sum of main and context vectors
    loss_trace: np.ndarray  # loss_trace[0] is the pre-training objective
    params: EmbeddingParams


def train_glove(counts: np.ndarray, cfg: GloveConfig, wcfg: WeightingConfig, *, seed: int = 0) -> GloveResult:
    """Full-batch Adam fit of the weighted log-bilinear objective; `seed` drives the init.

    One evaluation per epoch: the residual at the parameters of epoch t
    gives both loss_trace[t] and the gradient of step t + 1. A non-finite
    loss is evaluated again with the zero cells masked, and only that
    builds the (C, C) mask. Parameters, gradients and both moments are one
    flat buffer each, in the augmented layout of `_augmented`, so each Adam
    operation runs once over all of them.
    """
    if np.ndim(counts) != 2 or np.shape(counts)[0] != np.shape(counts)[1]:
        raise ValueError("counts must be square")
    C = np.shape(counts)[0]
    rng = np.random.default_rng(seed)
    s = cfg.init_scale
    flat, A, Bt, params = _augmented(C, cfg.d)
    for field in ("w", "w_ctx", "b", "b_ctx"):
        view = getattr(params, field)
        view[...] = rng.uniform(-s, s, view.shape)
    grad, dA, dBt, _ = _augmented(C, cfg.d)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = np.empty_like(flat)
    denom = np.empty_like(flat)
    F, logX = _fixed_terms(counts, wcfg)
    trace = np.empty(cfg.epochs + 1)
    # an overflow shows as a non-finite loss, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.epochs + 1):
            if t:
                # m <- b1 m + (1 - b1) g and v <- b2 v + ((1 - b2) g) g
                np.multiply(grad, 1.0 - cfg.beta1, out=step)
                m *= cfg.beta1
                m += step
                np.multiply(grad, 1.0 - cfg.beta2, out=step)
                step *= grad
                v *= cfg.beta2
                v += step
                # p <- p - lr m_hat / (sqrt(v_hat) + eps)
                np.divide(m, 1.0 - cfg.beta1 ** t, out=step)
                step *= cfg.learning_rate
                np.divide(v, 1.0 - cfg.beta2 ** t, out=denom)
                np.sqrt(denom, out=denom)
                denom += cfg.eps
                step /= denom
                flat -= step
            trace[t] = _loss_and_grad(A, Bt, F, logX, dA, dBt)
            if not np.isfinite(trace[t]):  # NaN cells are masked too, as f(X) and log X take them
                trace[t] = _loss_and_grad(A, Bt, F, logX, dA, dBt, ~(np.asarray(counts) > 0))
            if not np.isfinite(trace[t]):
                raise GloveDivergenceError(t)
    # Z is finite: a non-finite w or w~ row with a nonzero cell (its diagonal
    # at least) makes that epoch's loss non-finite, and a row without one has
    # a zero gradient, so it keeps its init
    return GloveResult(embedding=params.w + params.w_ctx, loss_trace=trace, params=params)
