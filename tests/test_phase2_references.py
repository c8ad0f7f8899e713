"""The phase-2 step and scoring against their earlier, plainer forms, kept here as references.

Each fast form must give the same bits as its reference: the sigmoid and
BCE sharing one exp(-|s|), the sigmoid over row blocks and in place, the
contrastive gradient with 2 G in place of G + G.T, its pair terms built
once per epoch instead of once per batch, the leaky rectifier as a
multiply by a factor cached in the forward pass, the encoder backward
stopping at the first layer's dz, the GCN with B Z computed once and its
backward stopping at the first layer's dH, momentum SGD over one flat
buffer, per-class AP over column blocks, and the score table's checks by
reductions. The one exception is the contrastive loss, read off the
gradient's row dots instead of summed over the similarity matrix: it sums
in another order, so it is held within 1e-12 of the reference, not to its
bits.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from mllgraph import diagnostics, trainer
from mllgraph.corpus import SyntheticConfig, generate_synthetic, split_by_subject
from mllgraph.glove import GloveConfig
from mllgraph.layers import (
    EncoderConfig,
    LayerStack,
    encode,
    encoder_gradients,
    gcn_forward,
    gcn_gradients,
    init_encoder,
    init_stack,
    propagate,
)
from mllgraph.losses import (
    _SIGMOID_BLOCK,
    LossConfig,
    contrastive_loss_and_grad,
    epoch_pair_terms,
    mll_loss_and_grad,
    sigmoid,
)
from mllgraph.metrics import _AP_BLOCK, ScoreTable, _column_aps
from mllgraph.trainer import TrainConfig, VariantSpec, _MomentumSGD, checkpoint_bytes, run_pipeline


def sigmoid_reference(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_whole_array_reference(x):
    """The sigmoid over the whole array at once, with full-size temporaries."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.divide(e, d, out=np.empty_like(x))
    np.divide(1.0, d, out=out, where=x >= 0)
    return out


def mll_loss_and_grad_reference(scores, targets):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    bce = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    grad = (sigmoid_reference(s) - y) / s.size
    return float(bce.mean()), grad


def contrastive_loss_and_grad_reference(representations, labels, cfg):
    """The loss from the clipped similarity matrix S = U U^T, gathered by pair masks."""
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


def gcn_layers(stack):
    """The GCN stack as the references read it: layers with weights, activation and slope."""
    last = len(stack.weights) - 1
    return SimpleNamespace(layers=[
        SimpleNamespace(weights=W, activation="identity" if i == last else "leaky", slope=stack.slope)
        for i, W in enumerate(stack.weights)
    ])


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


SIGMOID_EDGES = EDGES + [np.nan, -np.nan, 2.2e-308, -2.2e-308, 4e-320, -4e-320,
                         700.0, -700.0]


def _sigmoid_block_cases(rng):
    """Inputs whose row count falls just below, at and above multiples of the row block."""
    values = np.array(SIGMOID_EDGES)
    for width in (1, 39, 1000):
        rows = _SIGMOID_BLOCK // width
        for n in (rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1):
            x = rng.standard_normal((n, width)) * 40.0
            x.flat[rng.integers(0, x.size, values.size)] = values
            yield f"{n} x {width}", x
    for n in (_SIGMOID_BLOCK - 1, _SIGMOID_BLOCK, _SIGMOID_BLOCK + 1):
        yield f"{n}", rng.standard_normal(n) * 800.0
    yield "row wider than a block", rng.standard_normal((3, _SIGMOID_BLOCK + 5)) * 40.0
    yield "3-d", rng.standard_normal((_SIGMOID_BLOCK // 12 + 1, 3, 4)) * 40.0


def test_blocked_sigmoid_matches_whole_array_form():
    """Row blocks, `out` and in place give today's bits, NaN and the block edges included."""
    rng = np.random.default_rng(9)
    for what, x in _sigmoid_block_cases(rng):
        want = sigmoid_whole_array_reference(x)
        assert_same_bits(sigmoid(x), want, what)
        assert np.array_equal(want, sigmoid_reference(x), equal_nan=True), what
        out = np.full_like(x, 7.0)
        assert sigmoid(x, out=out) is out
        assert_same_bits(out, want, what)
        y = x.copy()
        assert sigmoid(y, out=y) is y
        assert_same_bits(y, want, what)
        if x.ndim == 2:                           # non-contiguous inputs, and in place on them
            for view in (x[:, ::2], x[::3], x.T):
                assert_same_bits(sigmoid(view), sigmoid_whole_array_reference(view), what)
            z = x.copy()
            view = z[:, ::2]
            want = sigmoid_whole_array_reference(view)
            sigmoid(view, out=view)
            assert_same_bits(view, want, what)
            assert_same_bits(z[:, 1::2], x[:, 1::2], what)   # the other columns untouched
    for v in SIGMOID_EDGES:                       # 0-d, in place as well
        x = np.array(v)
        assert_same_bits(sigmoid(x), sigmoid_whole_array_reference(x))
        y = x.copy()
        sigmoid(y, out=y)
        assert_same_bits(y, sigmoid_whole_array_reference(x))
    with pytest.raises(ValueError, match="cannot hold"):
        sigmoid(np.zeros((2, 3)), out=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="cannot hold"):
        sigmoid(np.zeros(3), out=np.zeros(3, dtype=np.float32))


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


def assert_loss_close(loss, ref_loss, terms, what=""):
    """The loss read off the gradient's row dots sums in another order than the S-based
    reference: within 1e-12 of the pair terms' scale, offset + |ref|."""
    assert abs(loss - ref_loss) <= 1e-12 * (terms.offset + abs(ref_loss)), what


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
            offset = cfg.alpha * w_pos * np.count_nonzero(pos) + cfg.beta * w_neg * np.count_nonzero(neg)
            assert_same_bits(t.G, G, what)
            assert_same_bits(np.float64(t.offset), np.float64(offset), what)


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
                assert_loss_close(loss, ref_loss, terms[k])
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
        assert_loss_close(loss, ref_loss, batch_terms(labels, cfg), what)
        assert_same_bits(grad, ref_grad, what)
        for key in set(after) | set(before):
            assert mid.get(key, 0) - before.get(key, 0) == after.get(key, 0) - mid.get(key, 0)


def test_pipeline_with_the_similarity_matrix_reference_term_matches(monkeypatch):
    """An MLL-GCN-CRC run with the S-based reference term patched in, fed each batch's
    labels, writes the same checkpoint bytes, and each epoch's train_loss is within
    1e-12 relative."""
    data = generate_synthetic(SyntheticConfig(n_samples=150, sp_count=3, as_count=6, feature_dim=16,
                                              samples_per_subject=5, seed=3))
    train, val, _ = split_by_subject(data, (0.6, 0.2, 0.2), seed=0)
    cfg = TrainConfig(epochs=4, batch_size=16, n_clusters=4, glove=GloveConfig(d=8, epochs=30))
    variant = VariantSpec("MLL-GCN-CRC")
    fast = run_pipeline(train, val, variant, cfg)
    monkeypatch.setattr(trainer, "epoch_pair_terms", lambda labels, b, _: [
        labels[start:start + b] for start in range(0, len(labels), b)])
    batches = []

    def reference_term(reps, labels):
        batches.append(len(labels))
        return contrastive_loss_and_grad_reference(reps, labels, cfg.loss)

    monkeypatch.setattr(trainer, "contrastive_loss_and_grad", reference_term)
    ref = run_pipeline(train, val, variant, cfg)
    assert sum(batches) == cfg.epochs * len(train)
    assert len(train) % cfg.batch_size                   # a shorter last batch as well
    assert checkpoint_bytes(fast.checkpoint) == checkpoint_bytes(ref.checkpoint)
    assert len(fast.trace) == len(ref.trace) == cfg.epochs
    for got, want in zip(fast.trace, ref.trace):
        assert abs(got.train_loss - want.train_loss) <= 1e-12 * abs(want.train_loss)
        assert got.val_exact_match == want.val_exact_match


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
        params = LayerStack([one, one], [np.zeros(1), np.zeros(1)], slope)
        _, cache = encode(x, params)
        z = encode_reference(x, params)[2][0]
        assert_same_bits(cache.inputs[1], np.where(z >= 0, z, slope * z))
        _, _, dz0 = encoder_gradients(upstream, cache, params)
        dh = upstream @ one.T                # through the linear layer
        assert_same_bits(dz0, np.where(z >= 0, dh, dh * slope))
        # GCN: one leaky layer over the given B Z, then a linear layer; each
        # value is its own one-class graph, so B = 1 multiplies no other row
        stack = LayerStack([one, one], slope=slope)
        B = np.ones((1, 1))
        for xi, ui in zip(x, upstream):
            xi, ui = xi.reshape(1, 1), ui.reshape(1, 1)
            _, gcache = gcn_forward(xi, B, stack)
            H = xi @ one
            assert_same_bits(gcache.inputs[1], B @ np.where(H >= 0, H, slope * H))
            _, dH0 = gcn_gradients(ui, gcache, B, stack)
            dG = B.T @ (ui @ one.T)          # through the linear layer
            assert_same_bits(dH0, np.where(H >= 0, dG, dG * slope))


def test_gcn_with_propagation_once_matches_reference():
    rng = np.random.default_rng(5)
    for C, d, D in ((9, 8, 16), (39, 64, 32), (1, 3, 2)):
        B = rng.random((C, C)) / C + np.eye(C)
        Z = rng.standard_normal((C, d))
        Z[0] = 0.0                         # zero preactivations in every layer
        stack = init_stack((d, d, D), seed=int(rng.integers(1000)))
        BZ = propagate(Z, B)
        for _ in range(2):                 # the same B Z serves every batch
            K, cache = gcn_forward(BZ, B, stack)
            ref_K, propagated, preacts = gcn_forward_reference(Z, B, gcn_layers(stack))
            assert_same_bits(K, ref_K)
            for got, want in zip(cache.inputs, propagated):
                assert_same_bits(got, want)
            upstream = rng.standard_normal(K.shape)
            dWs, dH0 = gcn_gradients(upstream, cache, B, stack)
            ref_dWs, ref_dZ = gcn_gradients_reference(upstream, preacts, propagated, B, gcn_layers(stack))
            for got, want in zip(dWs, ref_dWs):
                assert_same_bits(got, want)
            assert_same_bits(B.T @ (dH0 @ stack.weights[0].T), ref_dZ)


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


def column_aps_reference(scores, targets):
    """AP of each column, all columns ranked by one stable sort of the whole array."""
    n, C = scores.shape
    order = np.argsort(-scores, axis=0, kind="stable")
    hits = np.take_along_axis(targets, order, axis=0).astype(np.float64)
    cls, rank0 = np.nonzero(hits.T)
    precision = np.cumsum(hits, axis=0)[rank0, cls] / (rank0 + 1)
    counts = np.bincount(cls, minlength=C)
    ends = np.cumsum(counts)
    aps = np.full(C, np.nan)
    for c in np.flatnonzero(counts).tolist():
        aps[c] = precision[ends[c] - counts[c]:ends[c]].mean()
    return aps


def _ap_cases(rng):
    for n in (1, 2, 7, 270, 1000, _AP_BLOCK // 3 + 1):
        width = max(1, _AP_BLOCK // n)          # columns in one block
        for C in sorted({1, 3, width - 1, width, width + 1, 2 * width + 5} - {0}):
            if n * C > 3 * _AP_BLOCK:
                continue
            scores = rng.random((n, C))
            scores[:, ::4] = np.round(scores[:, ::4], 1)   # ties
            targets = (rng.random((n, C)) < 0.3).astype(np.uint8)
            targets[:, 0] = 0                               # an all-zero column
            if C > 2:
                scores[:, 1] = 0.5                          # a constant column
                targets[:, 2] = 1
            yield f"{n} x {C}", scores, targets
    yield "one column wider than a block", rng.random((_AP_BLOCK + 3, 2)), np.ones((_AP_BLOCK + 3, 2), np.uint8)


def test_column_block_aps_match_whole_array_sort():
    rng = np.random.default_rng(10)
    for what, scores, targets in _ap_cases(rng):
        assert_same_bits(_column_aps(scores, targets), column_aps_reference(scores, targets), what)


def score_table_reference(scores, targets, threshold=0.5):
    """(scores, targets) as ScoreTable stored them, checked elementwise with full-size masks."""
    s = np.asarray(scores, dtype=np.float64)
    with np.errstate(invalid="ignore"):          # the cast of -1.0 or NaN targets
        y = np.asarray(targets, dtype=np.uint8)
    if s.ndim != 2 or s.shape != y.shape:
        raise ValueError(f"scores {s.shape} and targets {np.shape(targets)} must match as (n, C)")
    if s.shape[0] < 1:
        raise ValueError("score table must hold at least one sample")
    if not np.all(np.isfinite(s)) or np.any(s < 0) or np.any(s > 1):
        raise ValueError("scores must lie within [0, 1]")
    raw = np.asarray(targets)
    if not np.all((raw == 0) | (raw == 1)):
        raise ValueError("targets must be 0/1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie within [0, 1]")
    return s, y


def _table_cases(rng):
    good_s = rng.random((6, 4))
    good_y = (rng.random((6, 4)) < 0.5).astype(np.uint8)
    yield "valid", good_s, good_y, 0.5
    yield "edges 0 and 1", np.array([[0.0, 1.0, -0.0], [1.0, 0.0, 0.5]]), good_y[:2, :3], 0.5
    yield "no columns", np.zeros((3, 0)), np.zeros((3, 0), np.uint8), 0.5
    for bad in (np.nan, np.inf, -np.inf, -1e-300, -0.5, 1.0000000000000002, 3.0):
        for pos in ((0, 0), (5, 3), (2, 1)):
            s = good_s.copy()
            s[pos] = bad
            yield f"score {bad} at {pos}", s, good_y, 0.5
    s = good_s.copy()
    s[1, 1], s[4, 2] = np.nan, -1.0
    yield "NaN and negative", s, good_y, 0.5
    for dtype, values in ((np.uint8, (2, 255)), (np.int64, (2, -1)), (np.int32, (2, -1)),
                          (np.float64, (2.0, 0.5, -1.0, np.nan)), (bool, ())):
        yield f"valid {np.dtype(dtype)} targets", good_s, good_y.astype(dtype), 0.5
        for bad in values:
            for pos in ((0, 0), (5, 3)):
                y = good_y.astype(dtype)
                y[pos] = bad
                yield f"target {bad} in {np.dtype(dtype)} at {pos}", good_s, y, 0.5
    yield "list targets", good_s.tolist(), good_y.tolist(), 0.5
    yield "shape mismatch", good_s, good_y[:, :3], 0.5
    yield "one-d", good_s[0], good_y[0], 0.5
    yield "no rows", np.zeros((0, 4)), np.zeros((0, 4)), 0.5
    yield "bad score and bad target", np.full((2, 2), 2.0), np.full((2, 2), 3), 0.5
    yield "bad threshold", good_s, good_y, 1.5


def test_score_table_checks_by_reductions_match_elementwise_checks():
    rng = np.random.default_rng(11)
    for what, scores, targets, threshold in _table_cases(rng):
        try:
            want = score_table_reference(scores, targets, threshold)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                ScoreTable(scores, targets, threshold)
            assert str(err.value) == str(exc), what
            continue
        table = ScoreTable(scores, targets, threshold)
        assert_same_bits(table.scores, want[0], what)
        assert_same_bits(table.targets, want[1], what)
