import math

import numpy as np
import pytest

from mllgraph import diagnostics
from mllgraph.losses import (
    LossConfig,
    contrastive_loss_and_grad,
    epoch_pair_terms,
    mll_loss_and_grad,
    sigmoid,
)

from gradcheck import max_rel_err, numeric_gradient


def test_loss_config_defaults_and_validation():
    cfg = LossConfig()
    assert cfg.alpha == 0.75 and cfg.beta == 0.25 and cfg.lam == 0.1
    assert cfg.contrastive_normalization == "pair_mean"
    with pytest.raises(ValueError, match="alpha"):
        LossConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="lam"):
        LossConfig(lam=-0.5)
    with pytest.raises(ValueError, match="normalization"):
        LossConfig(contrastive_normalization="mean")


def test_sigmoid_center_and_saturation():
    assert sigmoid(np.array(0.0)) == pytest.approx(0.5)
    big = sigmoid(np.array([1000.0, -1000.0]))
    assert big[0] == pytest.approx(1.0)
    assert big[1] == pytest.approx(0.0)
    assert np.all(np.isfinite(big))


def mll_loss(scores, targets):
    return mll_loss_and_grad(scores, targets)[0]


def batch_terms(labels, cfg):
    """The pair terms of `labels` as one batch."""
    (terms,) = epoch_pair_terms(labels, len(labels), cfg)
    return terms


def contrastive_loss(representations, labels, cfg):
    return contrastive_loss_and_grad(representations, batch_terms(labels, cfg))[0]


def test_mll_loss_hand_values():
    # At a raw score of 0 every class costs log 2 regardless of its target.
    s = np.zeros((2, 3))
    y = np.array([[1, 0, 1], [0, 0, 1]], dtype=float)
    assert mll_loss(s, y) == pytest.approx(math.log(2.0))
    # A huge score on a positive costs ~0; on a negative it costs ~|s|.
    assert mll_loss(np.array([50.0]), np.array([1.0])) == pytest.approx(0.0, abs=1e-12)
    assert mll_loss(np.array([50.0]), np.array([0.0])) == pytest.approx(50.0, rel=1e-9)


def test_mll_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="differ"):
        mll_loss_and_grad(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mll_gradient_matches_numeric():
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = rng.standard_normal((3, 4))
        y = rng.integers(0, 2, (3, 4)).astype(float)
        _, grad = mll_loss_and_grad(s, y)
        numeric = numeric_gradient(lambda sv: mll_loss(sv, y), s)
        assert max_rel_err(grad, numeric) < 1e-7


def test_cosine_similarity_cases():
    # the contrastive term's similarity is the cosine of the two rows: with
    # two differently labeled rows, raw_sum and beta = 1 it costs 2 (1 + cos)
    cfg = LossConfig(alpha=0.0, beta=1.0, contrastive_normalization="raw_sum")

    def cosine(a, b):
        return contrastive_loss(np.array([a, b], dtype=float), np.array([0, 1]), cfg) / 2.0 - 1.0

    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine([2, 0], [5, 0]) == pytest.approx(1.0)
    assert cosine([1, 0], [-3, 0]) == pytest.approx(-1.0)
    before = diagnostics.snapshot().get("contrastive_zero_norm", 0)
    assert cosine([0, 0], [1, 1]) == 0.0
    assert diagnostics.snapshot().get("contrastive_zero_norm", 0) == before + 1


def test_contrastive_hand_case_both_normalizations():
    # Unit vectors at 0, 90 and 180 degrees; first two share a label.
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    labels = np.array([0, 0, 1])
    # Ordered same-label pairs: (0,1),(1,0) with sim 0 -> sum(1-S) = 2.
    # Ordered cross-label pairs: (0,2),(2,0) sim -1 and (1,2),(2,1) sim 0
    # -> sum(1+S) = 2.
    raw = contrastive_loss(X, labels, LossConfig(contrastive_normalization="raw_sum"))
    assert raw == pytest.approx(0.75 * 2.0 + 0.25 * 2.0)
    mean = contrastive_loss(X, labels, LossConfig())
    assert mean == pytest.approx(0.75 * (2.0 / 2) + 0.25 * (2.0 / 4))


def test_contrastive_undersized_batch_is_zero():
    before = diagnostics.snapshot().get("contrastive_undersized_batch", 0)
    loss, grad = contrastive_loss_and_grad(np.ones((1, 4)), batch_terms(np.array([0]), LossConfig()))
    assert loss == 0.0
    assert np.all(grad == 0.0)
    assert diagnostics.snapshot().get("contrastive_undersized_batch", 0) == before + 1


def test_contrastive_rejects_label_count_mismatch():
    with pytest.raises(ValueError, match="one label per"):
        contrastive_loss_and_grad(np.ones((3, 2)), batch_terms(np.array([0, 1]), LossConfig()))


@pytest.mark.parametrize("norm", ["pair_mean", "raw_sum"])
def test_a_batch_past_the_labels_is_one_batch_of_them_all(norm):
    """A batch size past the label count, 10**12 included, builds the pair terms of
    one batch of every label, bit for bit, and no (0, b, b) stack of the size asked for."""
    cfg = LossConfig(contrastive_normalization=norm)
    rng = np.random.default_rng(3)
    for n in (1, 2, 31, 90):
        labels = rng.integers(0, 4, n)
        whole = epoch_pair_terms(labels, n, cfg)
        for b in (n + 1, 100_000, 10**12):
            terms = epoch_pair_terms(labels, b, cfg)
            assert len(terms) == len(whole) == 1, (n, b)
            assert terms[0].G.tobytes() == whole[0].G.tobytes(), (n, b)
            assert np.float64(terms[0].offset).tobytes() == np.float64(whole[0].offset).tobytes(), (n, b)


def test_contrastive_scale_invariance():
    rng = np.random.default_rng(1)
    cfg = LossConfig()
    for _ in range(10):
        X = rng.standard_normal((6, 4))
        labels = rng.integers(0, 3, 6)
        base = contrastive_loss(X, labels, cfg)
        for c in (0.5, 3.0):
            assert abs(contrastive_loss(c * X, labels, cfg) - base) <= 1e-10


def test_contrastive_all_same_labels_has_no_push_term():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([4, 4])
    cfg = LossConfig(alpha=1.0, beta=1.0, contrastive_normalization="raw_sum")
    # Only the two ordered pull pairs remain, each worth (1 - 0).
    assert contrastive_loss(X, labels, cfg) == pytest.approx(2.0)


def test_contrastive_gradient_matches_numeric():
    rng = np.random.default_rng(2)
    for norm in ("pair_mean", "raw_sum"):
        cfg = LossConfig(contrastive_normalization=norm)
        for _ in range(5):
            X = rng.standard_normal((5, 3))
            labels = rng.integers(0, 3, 5)
            _, grad = contrastive_loss_and_grad(X, batch_terms(labels, cfg))
            numeric = numeric_gradient(lambda Xv: contrastive_loss(Xv, labels, cfg), X)
            assert max_rel_err(grad, numeric) < 1e-6


def test_contrastive_zero_row_gets_zero_gradient():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1])
    before = diagnostics.snapshot().get("contrastive_zero_norm", 0)
    _, grad = contrastive_loss_and_grad(X, batch_terms(labels, LossConfig()))
    assert np.all(grad[0] == 0.0)
    assert diagnostics.snapshot().get("contrastive_zero_norm", 0) >= before + 1
