"""The GloVe objective formed over the whole (C, C) matrix: the reference for the fit's row blocks."""

import numpy as np


def masked_loss_and_residual_grad(params, counts, F, logX):
    """(loss, E) at `params`: loss = sum of f(X) R^2, and E = 2 f(X) R is d loss / d R.

    R = w w~^T + b + b~^T - log X on the nonzero cells of the counts X and
    0 on the others, NaN cells included, as f(X) and log X take them.
    """
    R = params.w @ params.w_ctx.T
    R += params.b[:, None]
    R += params.b_ctx[None, :]
    R -= logX
    R[~(np.asarray(counts) > 0)] = 0.0
    E = F * R
    loss = float(np.sum(E * R))
    E *= 2.0
    return loss, E
