import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mllgraph.artifacts import write_embeddings_csv
from mllgraph.cooccur import WeightingConfig
from mllgraph.glove import (
    EmbeddingParams,
    GloveConfig,
    _augmented,
    _fixed_terms,
    _loss_and_grad,
    _loss_and_residual_grad,
    train_glove,
)

from gradcheck import max_rel_err, numeric_gradient


def glove_loss(params, counts, wcfg):
    """The objective train_glove minimizes, at `params`."""
    return _loss_and_residual_grad(params, *_fixed_terms(counts, wcfg))[0]


def masked_gradients(params, terms):
    """The gradients of the masked objective at `params`, from its E = d loss / d R."""
    E = _loss_and_residual_grad(params, *terms)[1]
    return EmbeddingParams(w=E @ params.w_ctx, w_ctx=E.T @ params.w, b=E.sum(axis=1), b_ctx=E.sum(axis=0))


def glove_gradients(params, counts, wcfg):
    """The gradients of glove_loss at `params`."""
    return masked_gradients(params, _fixed_terms(counts, wcfg))


FIELDS = ("w", "w_ctx", "b", "b_ctx")


def block_evaluation(params, terms):
    """(loss, gradients, dA, dB~) from the row-block evaluation train_glove runs each epoch."""
    C, d = params.w.shape
    _, A, Bt, into = _augmented(C, d)
    for k in FIELDS:
        getattr(into, k)[...] = getattr(params, k)
    _, dA, dBt, grads = _augmented(C, d)
    loss = _loss_and_grad(A, Bt, *terms, dA, dBt)
    return loss, grads, dA, dBt


def assert_close(got, want, rel=1e-12):
    """|got - want| <= rel * max |want|, elementwise: within rel of the array's scale."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


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
    assert res.embedding.shape == (5, 4)


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


def test_train_glove_matches_reference_loop():
    """The row blocks and the folded biases sum each cell in another order than the
    reference: the trace and the parameters agree to 1e-12, relative."""
    rng = np.random.default_rng(9)
    cases = []
    for C, d, epochs in ((2, 2, 1), (6, 3, 25), (30, 8, 40)):
        counts = rng.integers(0, 150, (C, C))
        cases.append((np.triu(counts) + np.triu(counts, 1).T, d, epochs))  # int64 with zero cells
    # all-zero rows and mostly empty cells, which the fit leaves unmasked
    for C, d, epochs in ((40, 6, 30), (120, 8, 12)):
        counts = np.where(rng.random((C, C)) < 0.05, rng.integers(1, 300, (C, C)), 0)
        counts = np.triu(counts) + np.triu(counts, 1).T
        counts[[3, C // 2]] = 0
        counts[:, [3, C // 2]] = 0
        assert np.mean(counts == 0) >= 0.8
        cases.append((counts, d, epochs))
    for counts, d, epochs in cases:
        C = len(counts)
        cfg = GloveConfig(d=d, epochs=epochs, learning_rate=0.01)
        wcfg = WeightingConfig(x_max=50.0)
        res = train_glove(counts, cfg, wcfg, seed=C)
        trace, params = reference_train_glove(counts, cfg, wcfg, seed=C)
        np.testing.assert_allclose(res.loss_trace, trace, rtol=1e-12, atol=0)
        for k in FIELDS:
            assert_close(getattr(res.params, k), getattr(params, k))
        assert_close(res.embedding, params.w + params.w_ctx)


def random_counts(rng, C, density=0.3):
    """Symmetric int64 counts with mostly empty cells, a nonzero diagonal and, for C > 1, one
    all-zero row and column."""
    counts = np.where(rng.random((C, C)) < density, rng.integers(1, 300, (C, C)), 0)
    counts = np.triu(counts) + np.triu(counts, 1).T
    np.fill_diagonal(counts, rng.integers(1, 50, C))
    if C > 1:
        counts[C // 2] = 0
        counts[:, C // 2] = 0
    return counts


@pytest.mark.parametrize("C", [1, 2, 63, 64, 65, 130])
def test_block_evaluation_matches_masked_reference(C):
    """Around one and two block boundaries: loss and gradients within 1e-12 of the masked
    (C, C) evaluation, and zero gradients for the constant columns."""
    rng = np.random.default_rng(C)
    counts = random_counts(rng, C)
    params = random_params(rng, C, 5)
    wcfg = WeightingConfig(x_max=50.0)
    terms = _fixed_terms(counts, wcfg)
    loss, grads, dA, dBt = block_evaluation(params, terms)
    assert loss == pytest.approx(_loss_and_residual_grad(params, *terms)[0], rel=1e-12)
    want = masked_gradients(params, terms)
    for k in FIELDS:
        assert_close(getattr(grads, k), getattr(want, k))
    assert not dA[:, -1].any() and not dBt[:, -2].any()


@pytest.mark.parametrize("row", [1, 100])
def test_block_loss_masks_an_overflowing_empty_cell(row):
    """Only the empty cell (row, 3) overflows, in the first row block or a later one:
    the masked loss and gradients, not a divergence."""
    rng = np.random.default_rng(row)
    C = 130
    counts = random_counts(rng, C)
    counts[row, 3] = counts[3, row] = 0
    params = random_params(rng, C, 4)
    params.w[:, 0] = 0.0
    params.w_ctx[:, 0] = 0.0
    params.w[row, 0] = 1e200
    params.w_ctx[3, 0] = 1e200
    terms = _fixed_terms(counts, WeightingConfig())
    with np.errstate(over="ignore", invalid="ignore"):   # w w~^T is inf at (row, 3)
        want_loss = _loss_and_residual_grad(params, *terms)[0]
        want = masked_gradients(params, terms)
        loss, grads, dA, dBt = block_evaluation(params, terms)
    assert np.isfinite(want_loss)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    for k in FIELDS:
        assert np.all(np.isfinite(getattr(grads, k)))
        assert_close(getattr(grads, k), getattr(want, k))
    assert not dA[:, -1].any() and not dBt[:, -2].any()


def test_train_glove_keeps_the_constant_columns_at_one():
    """A = [w b 1] and B~ = [w~ 1 b~] end to end in one buffer: Adam never moves the ones."""
    rng = np.random.default_rng(4)
    C, d = 70, 6
    res = train_glove(random_counts(rng, C), GloveConfig(d=d, epochs=40, learning_rate=0.05),
                      WeightingConfig(), seed=2)
    A, Bt = res.params.w.base.reshape(2, C, d + 2)
    assert np.array_equal(A[:, :d], res.params.w) and np.array_equal(Bt[:, :d], res.params.w_ctx)
    assert np.array_equal(A[:, d], res.params.b) and np.array_equal(Bt[:, d + 1], res.params.b_ctx)
    assert np.all(A[:, d + 1] == 1.0) and np.all(Bt[:, d] == 1.0)
    assert res.loss_trace[-1] < res.loss_trace[0]


def test_train_glove_holds_no_full_residual():
    """At C = 512 and d = 8 the fit's tracemalloc peak stays below 3.25 (C, C) float64
    arrays: f(X) and log X are two, the (C, d + 2) Adam buffers about a quarter, and no
    (C, C) residual or E is held beside them."""
    rng = np.random.default_rng(8)
    C = 512
    counts = random_counts(rng, C, density=0.15)
    tracemalloc.start()
    try:
        train_glove(counts, GloveConfig(d=8, epochs=2), WeightingConfig(), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * C * C * 8


def test_train_glove_is_deterministic():
    counts = np.array([[40.0, 12.0], [12.0, 30.0]])
    cfg = GloveConfig(d=4, epochs=20)
    a = train_glove(counts, cfg, WeightingConfig(), seed=7)
    b = train_glove(counts, cfg, WeightingConfig(), seed=7)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.loss_trace, b.loss_trace)


def test_train_glove_final_vectors_are_sum_of_main_and_context():
    counts = np.array([[40.0, 12.0], [12.0, 30.0]])
    res = train_glove(counts, GloveConfig(d=4, epochs=5), WeightingConfig(), seed=0)
    assert np.allclose(res.embedding, res.params.w + res.params.w_ctx)


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
