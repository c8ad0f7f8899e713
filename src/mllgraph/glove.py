"""Label embeddings from co-occurrence counts via a weighted log-bilinear fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooccur import WeightingConfig, weight_matrix
from .corpus import format_csv_row


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
    """(f(X), the mask of zero cells, log X): the parts of the objective the counts fix."""
    X = np.asarray(counts, dtype=np.float64)
    mask = X > 0
    logX = np.log(X, out=np.zeros_like(X), where=mask)
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


def _gradients(params: EmbeddingParams, E: np.ndarray) -> EmbeddingParams:
    return EmbeddingParams(
        w=E @ params.w_ctx,
        w_ctx=E.T @ params.w,
        b=E.sum(axis=1),
        b_ctx=E.sum(axis=0),
    )


@dataclass
class GloveResult:
    embedding: np.ndarray  # (C, d) label embeddings, the sum of main and context vectors
    loss_trace: np.ndarray  # loss_trace[0] is the pre-training objective
    params: EmbeddingParams


def train_glove(counts: np.ndarray, cfg: GloveConfig, wcfg: WeightingConfig, *, seed: int = 0) -> GloveResult:
    """Full-batch Adam fit of the weighted log-bilinear objective; `seed` drives the init.

    One evaluation per epoch: the residual at the parameters of epoch t
    gives both loss_trace[t] and the gradient of step t + 1.
    """
    if np.ndim(counts) != 2 or np.shape(counts)[0] != np.shape(counts)[1]:
        raise ValueError("counts must be square")
    C = np.shape(counts)[0]
    rng = np.random.default_rng(seed)
    s = cfg.init_scale
    params = EmbeddingParams(
        w=rng.uniform(-s, s, (C, cfg.d)),
        w_ctx=rng.uniform(-s, s, (C, cfg.d)),
        b=rng.uniform(-s, s, C),
        b_ctx=rng.uniform(-s, s, C),
    )
    blocks = ("w", "w_ctx", "b", "b_ctx")
    m = {k: np.zeros_like(getattr(params, k)) for k in blocks}
    v = {k: np.zeros_like(getattr(params, k)) for k in blocks}
    terms = _fixed_terms(counts, wcfg)
    trace = np.empty(cfg.epochs + 1)
    trace[0], E = _loss_and_residual_grad(params, *terms)
    if not np.isfinite(trace[0]):
        raise GloveDivergenceError(0)
    for t in range(1, cfg.epochs + 1):
        grads = _gradients(params, E)
        del E  # free it before the next call allocates its own
        for k in blocks:
            g = getattr(grads, k)
            m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
            m_hat = m[k] / (1.0 - cfg.beta1 ** t)
            v_hat = v[k] / (1.0 - cfg.beta2 ** t)
            getattr(params, k)[...] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        trace[t], E = _loss_and_residual_grad(params, *terms)
        if not np.isfinite(trace[t]):
            raise GloveDivergenceError(t)
    # Z is finite: a non-finite w or w~ row with a nonzero cell (its diagonal
    # at least) makes that epoch's loss non-finite, and a row without one has
    # a zero gradient, so it keeps its init
    return GloveResult(embedding=params.w + params.w_ctx, loss_trace=trace, params=params)


def write_embeddings_csv(path, vectors: np.ndarray, names) -> None:
    Z = np.asarray(vectors, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name," + ",".join(f"e{j}" for j in range(Z.shape[1])) + "\n")
        for name, row in zip(names, Z):
            fh.write(f"{name},{format_csv_row(row)}\n")
