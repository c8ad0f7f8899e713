import math
from pathlib import Path

import numpy as np
import pytest

from mllgraph.cooccur import WeightingConfig
from mllgraph.glove import (
    EmbeddingMatrix,
    EmbeddingParams,
    GloveConfig,
    _fixed_terms,
    _gradients,
    _loss_and_residual_grad,
    train_glove,
    write_embeddings_csv,
)

from gradcheck import max_rel_err, numeric_gradient


def glove_loss(params, counts, wcfg):
    """The objective train_glove minimizes, at `params`."""
    return _loss_and_residual_grad(params, *_fixed_terms(counts, wcfg))[0]


def glove_gradients(params, counts, wcfg):
    """The gradients train_glove steps along, at `params`."""
    return _gradients(params, _loss_and_residual_grad(params, *_fixed_terms(counts, wcfg))[1])


def zero_params(C, d):
    return EmbeddingParams(
        w=np.zeros((C, d)), w_ctx=np.zeros((C, d)), b=np.zeros(C), b_ctx=np.zeros(C)
    )


def random_params(rng, C, d, scale=0.5):
    return EmbeddingParams(
        w=rng.uniform(-scale, scale, (C, d)),
        w_ctx=rng.uniform(-scale, scale, (C, d)),
        b=rng.uniform(-scale, scale, C),
        b_ctx=rng.uniform(-scale, scale, C),
    )


def test_loss_single_cell_hand_case():
    # one cell with count e: residual at zero parameters is -log e = -1
    counts = np.array([[math.e]])
    cfg = WeightingConfig(x_max=100, exponent=0.75)
    loss = glove_loss(zero_params(1, 2), counts, cfg)
    assert loss == pytest.approx((math.e / 100) ** 0.75, rel=1e-12)


def test_zero_cells_do_not_contribute():
    counts = np.array([[0.0, 0.0], [0.0, 5.0]])
    params = zero_params(2, 2)
    only_corner = glove_loss(params, counts, WeightingConfig())
    alone = glove_loss(zero_params(1, 2), np.array([[5.0]]), WeightingConfig())
    assert only_corner == pytest.approx(alone, rel=1e-12)


def test_gradients_match_numeric_small_case():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 30, (4, 4)).astype(float)
    counts = np.triu(counts) + np.triu(counts, 1).T
    params = random_params(rng, 4, 3)
    wcfg = WeightingConfig(x_max=20)
    grads = glove_gradients(params, counts, wcfg)
    for block in ("w", "w_ctx", "b", "b_ctx"):
        def f(x, _block=block):
            trial = EmbeddingParams(
                **{k: (x if k == _block else getattr(params, k)) for k in ("w", "w_ctx", "b", "b_ctx")}
            )
            return glove_loss(trial, counts, wcfg)

        numeric = numeric_gradient(f, getattr(params, block))
        assert max_rel_err(getattr(grads, block), numeric) < 1e-6


def test_fixed_log_counts_bit_equal_to_masked_log():
    rng = np.random.default_rng(6)
    X = np.where(rng.random((60, 60)) < 0.1, rng.integers(1, 400, (60, 60)), 0)
    X = (X + X.T).astype(np.float64)
    F, zero, logX = _fixed_terms(X, WeightingConfig())
    assert np.array_equal(zero, X == 0)
    want = np.where(X > 0, np.log(np.where(X > 0, X, 1.0)), 0.0)
    assert logX.tobytes() == want.tobytes()


def test_train_glove_records_initial_loss_and_length():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 50, (5, 5)).astype(float)
    counts = np.triu(counts) + np.triu(counts, 1).T
    cfg = GloveConfig(d=4, epochs=12)
    res = train_glove(counts, cfg, WeightingConfig(), seed=3)
    assert res.loss_trace.shape == (13,)
    # trace[0] is the objective before any step: rebuild the seeded init
    init_rng = np.random.default_rng(3)
    s = cfg.init_scale
    init = EmbeddingParams(
        w=init_rng.uniform(-s, s, (5, 4)),
        w_ctx=init_rng.uniform(-s, s, (5, 4)),
        b=init_rng.uniform(-s, s, 5),
        b_ctx=init_rng.uniform(-s, s, 5),
    )
    assert res.loss_trace[0] == pytest.approx(glove_loss(init, counts, WeightingConfig()), rel=1e-12)
    assert res.embedding.vectors.shape == (5, 4)


def reference_train_glove(counts, cfg, wcfg, seed):
    """Reference: Adam with a fresh glove_loss and glove_gradients every epoch.

    This is the loop train_glove used before it reused one residual per
    epoch for both the loss trace and the next gradient.
    """
    X = np.asarray(counts, dtype=np.float64)
    C = X.shape[0]
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
    trace = [glove_loss(params, X, wcfg)]
    for t in range(1, cfg.epochs + 1):
        grads = glove_gradients(params, X, wcfg)
        for k in blocks:
            g = getattr(grads, k)
            m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
            m_hat = m[k] / (1.0 - cfg.beta1 ** t)
            v_hat = v[k] / (1.0 - cfg.beta2 ** t)
            getattr(params, k)[...] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        trace.append(glove_loss(params, X, wcfg))
    return np.asarray(trace), params


def test_train_glove_is_bit_equal_to_reference_loop():
    rng = np.random.default_rng(9)
    for C, d, epochs in ((2, 2, 1), (6, 3, 25), (30, 8, 40)):
        counts = rng.integers(0, 150, (C, C))
        counts = np.triu(counts) + np.triu(counts, 1).T  # int64 with zero cells
        cfg = GloveConfig(d=d, epochs=epochs, learning_rate=0.01)
        wcfg = WeightingConfig(x_max=50.0)
        res = train_glove(counts, cfg, wcfg, seed=C)
        trace, params = reference_train_glove(counts, cfg, wcfg, seed=C)
        assert np.array_equal(res.loss_trace, trace)
        for k in ("w", "w_ctx", "b", "b_ctx"):
            assert np.array_equal(getattr(res.params, k), getattr(params, k))
        assert np.array_equal(res.embedding.vectors, params.w + params.w_ctx)


def test_train_glove_is_deterministic():
    counts = np.array([[40.0, 12.0], [12.0, 30.0]])
    cfg = GloveConfig(d=4, epochs=20)
    a = train_glove(counts, cfg, WeightingConfig(), seed=7)
    b = train_glove(counts, cfg, WeightingConfig(), seed=7)
    assert np.array_equal(a.embedding.vectors, b.embedding.vectors)
    assert np.array_equal(a.loss_trace, b.loss_trace)


def test_train_glove_final_vectors_are_sum_of_main_and_context():
    counts = np.array([[40.0, 12.0], [12.0, 30.0]])
    res = train_glove(counts, GloveConfig(d=4, epochs=5), WeightingConfig(), seed=0)
    assert np.allclose(res.embedding.vectors, res.params.w + res.params.w_ctx)


def test_train_glove_reduces_loss_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(5):
        C = int(rng.integers(3, 7))
        counts = rng.integers(0, 60, (C, C)).astype(float)
        counts = np.triu(counts) + np.triu(counts, 1).T
        res = train_glove(counts, GloveConfig(d=4, epochs=60, learning_rate=0.01),
                          WeightingConfig(), seed=int(rng.integers(1000)))
        assert res.loss_trace[-1] < res.loss_trace[0]


def test_train_glove_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        train_glove(np.ones((2, 3)), GloveConfig(d=2, epochs=1), WeightingConfig())


def test_glove_config_validation():
    with pytest.raises(ValueError, match="dimension"):
        GloveConfig(d=1)
    with pytest.raises(ValueError, match="learning_rate"):
        GloveConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="beta"):
        GloveConfig(beta1=1.0)


def test_embedding_matrix_validation():
    with pytest.raises(ValueError, match="finite"):
        EmbeddingMatrix(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="d >= 2"):
        EmbeddingMatrix(np.ones((3, 1)))


def read_embeddings_csv(path):
    """Reference reader, the inverse of write_embeddings_csv: (names, vectors)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("empty embeddings file")
    names = []
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        names.append(parts[0])
        rows.append([float(x) for x in parts[1:]])
    return names, np.asarray(rows, dtype=np.float64)


def test_embeddings_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((3, 4))
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, Z, ["a", "b", "c"])
    names, back = read_embeddings_csv(path)
    assert names == ["a", "b", "c"]
    assert np.array_equal(back, Z)
