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


def _epoch_loss(params: EmbeddingParams, F, zero, logX, R, E) -> float:
    """`_loss_and_residual_grad` into the preallocated (C, C) buffers R and E.

    The zero cells are not masked: f(X) is 0 there, so while R is finite
    E is +-0 and f(X) R^2 is +0, which leaves the loss and the gradients
    as the masked form gives them. Only a non-finite R in a zero cell can
    make the sum non-finite on its own, so a non-finite loss is evaluated
    again in the masked form, whose E then replaces this one; that form
    also raises the floating-point warnings, which this one keeps quiet.
    """
    with np.errstate(all="ignore"):
        np.matmul(params.w, params.w_ctx.T, out=R)
        R += params.b[:, None]
        R += params.b_ctx[None, :]
        R -= logX
        np.multiply(F, R, out=E)
        R *= E
        loss = float(np.sum(R))
        E *= 2.0
    if not np.isfinite(loss):
        loss, masked = _loss_and_residual_grad(params, F, zero, logX)
        E[...] = masked
    return loss


def _gradients(params: EmbeddingParams, E: np.ndarray, out=None) -> EmbeddingParams:
    """d loss / d params from E = d loss / d R, into `out`'s arrays when given."""
    if out is None:
        out = EmbeddingParams(**{k: np.empty_like(v) for k, v in vars(params).items()})
    np.matmul(E, params.w_ctx, out=out.w)
    np.matmul(E.T, params.w, out=out.w_ctx)
    np.sum(E, axis=1, out=out.b)
    np.sum(E, axis=0, out=out.b_ctx)
    return out


@dataclass
class GloveResult:
    embedding: np.ndarray  # (C, d) label embeddings, the sum of main and context vectors
    loss_trace: np.ndarray  # loss_trace[0] is the pre-training objective
    params: EmbeddingParams


def train_glove(counts: np.ndarray, cfg: GloveConfig, wcfg: WeightingConfig, *, seed: int = 0) -> GloveResult:
    """Full-batch Adam fit of the weighted log-bilinear objective; `seed` drives the init.

    One evaluation per epoch: the residual at the parameters of epoch t
    gives both loss_trace[t] and the gradient of step t + 1. Parameters,
    gradients and both moments are one flat buffer each, so each Adam
    operation runs once over all four blocks.
    """
    if np.ndim(counts) != 2 or np.shape(counts)[0] != np.shape(counts)[1]:
        raise ValueError("counts must be square")
    C = np.shape(counts)[0]
    rng = np.random.default_rng(seed)
    s = cfg.init_scale
    shapes = ((C, cfg.d), (C, cfg.d), (C,), (C,))
    flat = np.concatenate([rng.uniform(-s, s, shape).ravel() for shape in shapes])
    grad = np.empty_like(flat)
    params = EmbeddingParams(*block_views(flat, shapes))
    grads = EmbeddingParams(*block_views(grad, shapes))
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = np.empty_like(flat)
    denom = np.empty_like(flat)
    terms = _fixed_terms(counts, wcfg)
    R = np.empty((C, C))
    E = np.empty((C, C))
    trace = np.empty(cfg.epochs + 1)
    trace[0] = _epoch_loss(params, *terms, R, E)
    if not np.isfinite(trace[0]):
        raise GloveDivergenceError(0)
    for t in range(1, cfg.epochs + 1):
        _gradients(params, E, out=grads)
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
        trace[t] = _epoch_loss(params, *terms, R, E)
        if not np.isfinite(trace[t]):
            raise GloveDivergenceError(t)
    # Z is finite: a non-finite w or w~ row with a nonzero cell (its diagonal
    # at least) makes that epoch's loss non-finite, and a row without one has
    # a zero gradient, so it keeps its init
    return GloveResult(embedding=params.w + params.w_ctx, loss_trace=trace, params=params)
