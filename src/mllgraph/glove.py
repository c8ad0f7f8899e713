"""Label embeddings from co-occurrence counts via a weighted log-bilinear fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooccur import WeightingConfig, weight_matrix
from .layers import block_views


@dataclass(frozen=True)
class GloveConfig:
    d: int = 32
    epochs: int = 256
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    init_scale: float = 0.05

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("embedding dimension must be at least 2")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


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
    """(f(X), the mask of zero cells, log X): the parts of the objective the counts fix.

    Integer counts are read as they are; neither term makes a float copy of them.
    """
    X = np.asarray(counts)
    mask = X > 0
    logX = np.log(X, out=np.zeros(X.shape), where=mask)
    return weight_matrix(X, wcfg), ~mask, logX


def _loss_and_residual_grad(params: EmbeddingParams, F, zero, logX):
    """(loss, E) at `params`: loss = sum of f(X) R^2, and E = 2 f(X) R is d loss / d R.

    R = w w~^T + b + b~^T - log X on the nonzero cells and 0 on the others.
    R is built in place and f(X) R is reused for both the loss and E, so
    one call holds two (C, C) arrays.
    """
    R = params.w @ params.w_ctx.T
    R += params.b[:, None]
    R += params.b_ctx[None, :]
    R -= logX
    R[zero] = 0.0
    E = F * R
    R *= E
    loss = float(np.sum(R))
    E *= 2.0
    return loss, E


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


def _loss_and_grad(A, Bt, F, zero, logX, dA, dBt) -> float:
    """The loss at A B~^T, with d loss / dA into dA and d loss / dB~ into dBt.

    R = A B~^T - log X and E = f(X) R are formed _GLOVE_ROWS rows at a
    time: each block adds vdot(E, R) to the loss, writes its rows of
    dA = E B~ and adds E^T A[rows] to dB~, and the factor 2 of
    d loss / d R = 2E is applied to the (C, d + 2) gradients afterwards.
    The gradients of the constant columns (E b~ in dA, E^T b in dB~) are
    zeroed, so Adam leaves those columns at exactly 1.

    The zero cells are not masked: f(X) is 0 there, so while R is finite
    E is +-0 and f(X) R^2 is +0, which leaves the loss and the gradients
    as the masked form gives them. Only a non-finite R in a zero cell can
    make the sum non-finite on its own, so a non-finite loss is evaluated
    again in the masked form over the whole matrix, whose E then gives the
    gradients; that form also raises the floating-point warnings, which
    this one keeps quiet.
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
            np.multiply(F[rows], r, out=e)
            loss += np.vdot(e, r)
            np.matmul(e, Bt, out=dA[rows])
            np.matmul(e.T, a, out=part)
            dBt += part
    if np.isfinite(loss):
        dA *= 2.0
        dBt *= 2.0
    else:
        loss, masked = _loss_and_residual_grad(_fields(A, Bt), F, zero, logX)
        np.matmul(masked, Bt, out=dA)
        np.matmul(masked.T, A, out=dBt)
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
    gives both loss_trace[t] and the gradient of step t + 1. Parameters,
    gradients and both moments are one flat buffer each, in the augmented
    layout of `_augmented`, so each Adam operation runs once over all of them.
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
    terms = _fixed_terms(counts, wcfg)
    trace = np.empty(cfg.epochs + 1)
    trace[0] = _loss_and_grad(A, Bt, *terms, dA, dBt)
    if not np.isfinite(trace[0]):
        raise GloveDivergenceError(0)
    for t in range(1, cfg.epochs + 1):
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
        trace[t] = _loss_and_grad(A, Bt, *terms, dA, dBt)
        if not np.isfinite(trace[t]):
            raise GloveDivergenceError(t)
    # Z is finite: a non-finite w or w~ row with a nonzero cell (its diagonal
    # at least) makes that epoch's loss non-finite, and a row without one has
    # a zero gradient, so it keeps its init
    return GloveResult(embedding=params.w + params.w_ctx, loss_trace=trace, params=params)
