"""The phase-2 step against its earlier, plainer forms, kept here as references.

Each fast form must give the same bits as its reference: the sigmoid and
BCE sharing one exp(-|s|), the contrastive term with 2 G in place of
G + G.T, its pair terms built once per epoch instead of once per batch,
the leaky rectifier as a multiply by a factor cached in the forward pass,
the encoder backward stopping at the first layer's dz, the GCN with B Z
computed once and its backward stopping at the first layer's dH, and
momentum SGD over one flat buffer.
"""

import numpy as np
import pytest

from mllgraph import diagnostics
from mllgraph.encoder import EncoderConfig, EncoderParams, encode, encoder_gradients, init_encoder
from mllgraph.graph import GcnLayer, GcnStack, gcn_forward, gcn_gradients, init_gcn_stack, propagate
from mllgraph.losses import (
    LossConfig,
    contrastive_loss_and_grad,
    epoch_pair_terms,
    mll_loss_and_grad,
    sigmoid,
)
from mllgraph.trainer import _MomentumSGD


def sigmoid_reference(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mll_loss_and_grad_reference(scores, targets):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    bce = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    grad = (sigmoid_reference(s) - y) / s.size
    return float(bce.mean()), grad


def contrastive_loss_and_grad_reference(representations, labels, cfg):
    X = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels)
    n = X.shape[0]
    if n < 2:
        diagnostics.record("contrastive_undersized_batch")
        return 0.0, np.zeros_like(X)
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0.0
    if zero.any():
        diagnostics.record("contrastive_zero_norm", int(zero.sum()))
    safe = np.where(zero, 1.0, norms)
    U = X / safe[:, None]
    U[zero] = 0.0
    S = np.clip(U @ U.T, -1.0, 1.0)
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(n, dtype=bool)
    neg = ~same
    if cfg.contrastive_normalization == "pair_mean":
        n_pos = int(pos.sum())
        n_neg = int(neg.sum())
        w_pos = 1.0 / n_pos if n_pos else 0.0
        w_neg = 1.0 / n_neg if n_neg else 0.0
    else:
        w_pos = w_neg = 1.0
    loss = float(
        cfg.alpha * w_pos * (1.0 - S)[pos].sum() + cfg.beta * w_neg * (1.0 + S)[neg].sum()
    )
    G = np.zeros((n, n))
    G[pos] = -cfg.alpha * w_pos
    G[neg] = cfg.beta * w_neg
    dU = (G + G.T) @ U
    dX = (dU - (U * dU).sum(axis=1)[:, None] * U) / safe[:, None]
    dX[zero] = 0.0
    return loss, dX


def encode_reference(x, params):
    """Representations, per-layer inputs and preactivations, with the rectifier as np.where."""
    h = np.asarray(x, dtype=np.float64)
    inputs, preacts = [], []
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ W + b
        preacts.append(z)
        h = z if i == len(params.weights) - 1 else np.where(z >= 0, z, params.slope * z)
    return h, inputs, preacts


def encoder_gradients_reference(upstream, inputs, preacts, params):
    """Per-layer dW, db and d(features), with the rectifier mask as a multiply."""
    dh = np.asarray(upstream, dtype=np.float64)
    n_layers = len(params.weights)
    dWs = [None] * n_layers
    dbs = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i == n_layers - 1:
            dz = dh
        else:
            dz = dh * np.where(preacts[i] >= 0, 1.0, params.slope)
        dWs[i] = inputs[i].T @ dz
        dbs[i] = dz.sum(axis=0)
        dh = dz @ params.weights[i].T
    return dWs, dbs, dh


def gcn_forward_reference(Z, B, stack):
    """B G W per layer, B Z included; returns (K, propagated, preacts)."""
    G = Z
    propagated, preacts = [], []
    for layer in stack.layers:
        M = B @ G
        H = M @ layer.weights
        propagated.append(M)
        preacts.append(H)
        G = H if layer.activation == "identity" else np.where(H >= 0, H, layer.slope * H)
    return G, propagated, preacts


def gcn_gradients_reference(upstream, preacts, propagated, B, stack):
    """Per-layer dW and d(embeddings), with ones_like for the identity layer."""
    dG = upstream
    dWs = [None] * len(stack.layers)
    for i in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[i]
        H = preacts[i]
        if layer.activation == "identity":
            dH = dG * np.ones_like(H)
        else:
            dH = dG * np.where(H >= 0, 1.0, layer.slope)
        dWs[i] = propagated[i].T @ dH
        dG = B.T @ (dH @ layer.weights.T)
    return dWs, dG


class MomentumSGDReference:
    """Three in-place ops per tensor."""

    def __init__(self, params, learning_rate, momentum):
        self.params = params
        self.velocity = [np.zeros_like(p) for p in params]
        self.learning_rate = learning_rate
        self.momentum = momentum

    def step(self, grads):
        for p, v, g in zip(self.params, self.velocity, grads):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


def assert_same_bits(got, want, what=""):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 36.0, -36.0, 744.0, -744.0, 746.0, -746.0,
         800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]


def test_sigmoid_matches_reference():
    rng = np.random.default_rng(0)
    cases = [rng.standard_normal(s) * scale for s in [(7,), (5, 3), (32, 39)]
             for scale in (1.0, 30.0, 1000.0)]
    cases += [np.array(EDGES), np.array(EDGES).reshape(1, -1), np.zeros((0, 3))]
    cases += [np.array(v) for v in EDGES]          # 0-d inputs
    for x in cases:
        assert_same_bits(sigmoid(x), sigmoid_reference(x))


def test_mll_loss_and_grad_matches_reference():
    rng = np.random.default_rng(1)
    cases = []
    for shape in [(1, 39), (32, 39), (7, 1), (3, 1000)]:
        for scale in (1.0, 50.0, 1000.0):
            cases.append((rng.standard_normal(shape) * scale,
                          rng.integers(0, 2, shape).astype(float)))
    edges = np.array(EDGES[:-2])
    cases.append((edges, (np.arange(edges.size) % 2).astype(float)))
    cases += [(np.array(v), np.array(1.0)) for v in EDGES[:-2]]   # 0-d
    for s, y in cases:
        loss, grad = mll_loss_and_grad(s, y)
        ref_loss, ref_grad = mll_loss_and_grad_reference(s, y)
        assert_same_bits(np.float64(loss), np.float64(ref_loss))
        assert_same_bits(grad, ref_grad)


def pair_terms_reference(labels, cfg):
    """One batch's (pos, neg, w_pos, w_neg, G) as each batch used to build them."""
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
    G = np.where(neg, 2.0 * (cfg.beta * w_neg), 2.0 * (-cfg.alpha * w_pos))
    np.fill_diagonal(G, 0.0)
    return pos, neg, w_pos, w_neg, G


def batch_terms(labels, cfg):
    """The pair terms of `labels` as one batch."""
    (terms,) = epoch_pair_terms(labels, len(labels), cfg)
    return terms


def _epoch_label_cases(rng):
    for n, b in ((64, 32), (70, 32), (65, 32), (66, 32), (31, 32), (1, 32), (2, 32),
                 (9, 3), (10, 3), (5, 1), (7, 2)):
        yield f"random n={n} b={b}", rng.permutation(rng.integers(0, 4, n)), b
        yield f"random order n={n} b={b}", rng.permutation(np.arange(n) % 3), b
        yield f"all equal n={n} b={b}", np.full(n, 2), b
        yield f"all distinct n={n} b={b}", rng.permutation(n), b


@pytest.mark.parametrize("cfg", [
    LossConfig(),
    LossConfig(contrastive_normalization="raw_sum"),
    LossConfig(alpha=0.0, beta=1.3, contrastive_normalization="raw_sum"),
    LossConfig(alpha=2.0, beta=0.0),
], ids=["pair_mean", "raw_sum", "no_pull", "no_push"])
def test_epoch_pair_terms_match_per_batch_construction(cfg):
    rng = np.random.default_rng(7)
    for what, labels, b in _epoch_label_cases(rng):
        terms = epoch_pair_terms(labels, b, cfg)
        starts = range(0, len(labels), b)
        assert len(terms) == len(starts), what
        for t, start in zip(terms, starts):
            pos, neg, w_pos, w_neg, G = pair_terms_reference(labels[start:start + b], cfg)
            assert_same_bits(t.pos, pos, what)
            assert_same_bits(t.neg, neg, what)
            assert_same_bits(np.float64(t.pull), np.float64(cfg.alpha * w_pos), what)
            assert_same_bits(np.float64(t.push), np.float64(cfg.beta * w_neg), what)
            assert_same_bits(t.G, G, what)


@pytest.mark.parametrize("norm", ["pair_mean", "raw_sum"])
def test_epoch_pair_terms_drive_the_loss_like_per_batch_labels(norm):
    """A pass over an epoch's batches, tail of 1 and of 2 included, gives the reference bits and counts."""
    cfg = LossConfig(contrastive_normalization=norm)
    rng = np.random.default_rng(8)
    for n, b in ((65, 32), (66, 32), (70, 32), (64, 32)):
        X = rng.standard_normal((n, 5))
        X[3] = 0.0
        for labels in (rng.integers(0, 3, n), np.zeros(n, int), np.arange(n)):
            terms = epoch_pair_terms(labels, b, cfg)
            for k, start in enumerate(range(0, n, b)):
                batch = slice(start, start + b)
                before = diagnostics.snapshot()
                loss, grad = contrastive_loss_and_grad(X[batch], terms[k])
                mid = diagnostics.snapshot()
                ref_loss, ref_grad = contrastive_loss_and_grad_reference(X[batch], labels[batch], cfg)
                after = diagnostics.snapshot()
                assert_same_bits(np.float64(loss), np.float64(ref_loss))
                assert_same_bits(grad, ref_grad)
                for key in set(after) | set(before):
                    assert mid.get(key, 0) - before.get(key, 0) == after.get(key, 0) - mid.get(key, 0)
                if n - start == 1:
                    assert mid.get("contrastive_undersized_batch", 0) == (
                        before.get("contrastive_undersized_batch", 0) + 1)


def _contrastive_cases(rng):
    for n in (1, 2, 3, 17, 32):
        for d in (1, 4, 32):
            X = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3])
            yield "random", X, rng.integers(0, 3, n)
            yield "all same", X, np.full(n, 5)
            yield "all distinct", X, np.arange(n)
            Xz = X.copy()
            Xz[::3] = 0.0
            yield "zero-norm rows", Xz, rng.integers(0, 2, n)
    yield "parallel rows", np.ones((4, 3)), np.array([0, 0, 1, 1])
    yield "all zero", np.zeros((3, 2)), np.array([0, 1, 0])


@pytest.mark.parametrize("cfg", [
    LossConfig(),
    LossConfig(contrastive_normalization="raw_sum"),
    LossConfig(alpha=0.0, beta=1.3, contrastive_normalization="raw_sum"),
    LossConfig(alpha=2.0, beta=0.0),
], ids=["pair_mean", "raw_sum", "no_pull", "no_push"])
def test_contrastive_loss_and_grad_matches_reference(cfg):
    rng = np.random.default_rng(2)
    for what, X, labels in _contrastive_cases(rng):
        before = diagnostics.snapshot()
        loss, grad = contrastive_loss_and_grad(X, batch_terms(labels, cfg))
        mid = diagnostics.snapshot()
        ref_loss, ref_grad = contrastive_loss_and_grad_reference(X, labels, cfg)
        after = diagnostics.snapshot()
        assert_same_bits(np.float64(loss), np.float64(ref_loss), what)
        assert_same_bits(grad, ref_grad, what)
        for key in set(after) | set(before):
            assert mid.get(key, 0) - before.get(key, 0) == after.get(key, 0) - mid.get(key, 0)


def test_encoder_backward_matches_reference():
    rng = np.random.default_rng(3)
    params = init_encoder(16, EncoderConfig(layer_widths=(16, 32, 8)), seed=4)
    features = rng.standard_normal((32, 16))
    features[:4] = 0.0                     # zero preactivations (zero biases): the z >= 0 side
    features[4] = -0.0
    for x in (features, features[:1]):
        reps, cache = encode(x, params)
        ref_reps, inputs, preacts = encode_reference(x, params)
        assert_same_bits(reps, ref_reps)
        for got, want in zip(cache.inputs, inputs):
            assert_same_bits(got, want)
        upstream = rng.standard_normal(np.shape(reps))
        dWs, dbs, dz0 = encoder_gradients(upstream, cache, params)
        ref_dWs, ref_dbs, ref_dh = encoder_gradients_reference(upstream, inputs, preacts, params)
        for got, want in zip(dWs + dbs, ref_dWs + ref_dbs):
            assert_same_bits(got, want)
        assert dz0.shape == (x.shape[0], 16)
        assert_same_bits(dz0 @ params.weights[0].T, ref_dh)


@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 3.0])
def test_cached_leaky_factor_matches_where_at_edge_values(slope):
    """z * f and dh * f against np.where at zero, tiny, huge, +-inf and NaN preactivations.

    Each layer has one weight of 1, so the preactivations are the inputs as
    the product gives them (it turns -0 into +0).
    """
    x = np.array(EDGES + [np.nan, -np.nan]).reshape(-1, 1)
    upstream = np.array(EDGES[::-1] + [1.0, -np.nan]).reshape(-1, 1)
    one = np.ones((1, 1))
    with np.errstate(invalid="ignore", over="ignore"):   # inf * 0, 3e308, on both sides
        # encoder: one leaky hidden layer, then a linear layer
        params = EncoderParams([one, one], [np.zeros(1), np.zeros(1)], slope)
        _, cache = encode(x, params)
        z = encode_reference(x, params)[2][0]
        assert_same_bits(cache.inputs[1], np.where(z >= 0, z, slope * z))
        _, _, dz0 = encoder_gradients(upstream, cache, params)
        dh = upstream @ one.T                # through the linear layer
        assert_same_bits(dz0, np.where(z >= 0, dh, dh * slope))
        # GCN: one leaky layer over the given B Z
        stack = GcnStack([GcnLayer(one, "leaky", slope)])
        K, gcache = gcn_forward(x, np.eye(len(x)), stack)
        H = x @ one
        assert_same_bits(K, np.where(H >= 0, H, slope * H))
        _, dH0 = gcn_gradients(upstream, gcache, np.eye(len(x)), stack)
        assert_same_bits(dH0, np.where(H >= 0, upstream, upstream * slope))


def test_gcn_with_propagation_once_matches_reference():
    rng = np.random.default_rng(5)
    for C, d, D in ((9, 8, 16), (39, 64, 32), (1, 3, 2)):
        B = rng.random((C, C)) / C + np.eye(C)
        Z = rng.standard_normal((C, d))
        Z[0] = 0.0                         # zero preactivations in every layer
        stack = init_gcn_stack((d, d, D), seed=int(rng.integers(1000)))
        BZ = propagate(Z, B)
        for _ in range(2):                 # the same B Z serves every batch
            K, cache = gcn_forward(BZ, B, stack)
            ref_K, propagated, preacts = gcn_forward_reference(Z, B, stack)
            assert_same_bits(K, ref_K)
            for got, want in zip(cache.propagated, propagated):
                assert_same_bits(got, want)
            upstream = rng.standard_normal(K.shape)
            dWs, dH0 = gcn_gradients(upstream, cache, B, stack)
            ref_dWs, ref_dZ = gcn_gradients_reference(upstream, preacts, propagated, B, stack)
            for got, want in zip(dWs, ref_dWs):
                assert_same_bits(got, want)
            assert_same_bits(B.T @ (dH0 @ stack.layers[0].weights.T), ref_dZ)


def test_flat_momentum_sgd_matches_per_tensor_reference():
    rng = np.random.default_rng(6)
    shapes = [(16, 16), (16, 32), (16,), (32,), (8, 8), (8, 32), (1, 1)]
    start = [rng.standard_normal(s) for s in shapes]
    originals = [p.copy() for p in start]
    sgd = _MomentumSGD(start, 0.01, 0.9)
    ref = MomentumSGDReference([p.copy() for p in start], 0.01, 0.9)
    for p, view in zip(start, sgd.params):
        assert view.shape == p.shape and np.shares_memory(view, sgd.flat)
    for _ in range(25):
        grads = [rng.standard_normal(s) * rng.choice([1e-6, 1.0, 1e6]) for s in shapes]
        grads[1] = np.asfortranarray(grads[1])   # a non-C-ordered gradient
        sgd.step(grads)
        ref.step(grads)
        for got, want in zip(sgd.params, ref.params):
            assert_same_bits(got, want)
    for p, original in zip(start, originals):    # the buffer holds copies
        assert_same_bits(p, original)
