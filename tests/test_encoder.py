import numpy as np
import pytest

from mllgraph.layers import (
    EncoderConfig,
    LayerStack,
    encode,
    encoder_gradients,
    init_encoder,
)

from gradcheck import away_from_kinks, encoder_hidden_preacts, max_rel_err, numeric_gradient


def test_config_defaults_and_validation():
    cfg = EncoderConfig()
    assert cfg.layer_widths == (16, 32)
    assert cfg.output_dim == 32
    with pytest.raises(ValueError, match="layer_widths"):
        EncoderConfig(layer_widths=())
    with pytest.raises(ValueError, match="layer_widths"):
        EncoderConfig(layer_widths=(8, 0))
    assert EncoderConfig(layer_widths=[8, 16]).layer_widths == (8, 16)   # a JSON list
    with pytest.raises(ValueError, match="slope"):
        EncoderConfig(slope=-0.1)
    with pytest.raises(ValueError):
        init_encoder(4, EncoderConfig(), seed=-1)


def test_init_shapes_and_zero_biases():
    params = init_encoder(10, EncoderConfig(layer_widths=(6, 4)), seed=3)
    assert [W.shape for W in params.weights] == [(10, 6), (6, 4)]
    assert [b.shape for b in params.biases] == [(6,), (4,)]
    assert all(np.all(b == 0.0) for b in params.biases)
    assert params.input_dim == 10
    bound = 1.0 / np.sqrt(10)
    assert np.all(np.abs(params.weights[0]) <= bound)


def test_init_is_deterministic():
    a = init_encoder(5, EncoderConfig(layer_widths=(3,)), seed=7)
    b = init_encoder(5, EncoderConfig(layer_widths=(3,)), seed=7)
    assert np.array_equal(a.weights[0], b.weights[0])


def test_init_rejects_bad_input_dim():
    with pytest.raises(ValueError, match="input_dim"):
        init_encoder(0, EncoderConfig())


def test_params_validation():
    with pytest.raises(ValueError, match="at least one layer"):
        LayerStack([])
    with pytest.raises(ValueError, match="matching weight/bias"):
        LayerStack([np.ones((2, 3))], [])
    with pytest.raises(ValueError, match="bias"):
        LayerStack([np.ones((2, 3))], [np.zeros(2)])
    with pytest.raises(ValueError, match="width mismatch"):
        LayerStack(
            [np.ones((2, 3)), np.ones((4, 2))],
            [np.zeros(3), np.zeros(2)],
        )


def test_single_linear_layer_is_affine_map():
    W = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    b = np.array([0.25, -0.75])
    params = LayerStack([W], [b])
    x = np.array([[1.0, -2.0, 4.0]])
    out, _ = encode(x, params)
    assert np.allclose(out, x @ W + b)


def test_hidden_layers_use_leaky_rectifier():
    params = LayerStack(
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.zeros(1), np.zeros(1)],
        slope=0.2,
    )
    out, _ = encode(np.array([[2.0], [-2.0]]), params)
    assert out[0, 0] == pytest.approx(2.0)
    assert out[1, 0] == pytest.approx(-0.4)


def test_batch_rows_match_single_calls():
    rng = np.random.default_rng(1)
    params = init_encoder(5, EncoderConfig(layer_widths=(4, 3)), seed=2)
    X = rng.standard_normal((6, 5))
    batch, _ = encode(X, params)
    assert batch.shape == (6, 3)
    for i in range(6):
        row, _ = encode(X[i:i + 1], params)
        assert np.allclose(batch[i], row[0])


def test_encode_rejects_wrong_width():
    params = init_encoder(5, EncoderConfig(layer_widths=(3,)))
    with pytest.raises(ValueError, match="encoder input"):
        encode(np.ones((2, 4)), params)
    # one feature vector is not a batch
    with pytest.raises(ValueError, match="batch"):
        encode(np.ones(5), params)


def test_gradients_match_numeric():
    rng = np.random.default_rng(4)
    for _ in range(6):
        n, D_in = 4, 5
        upstream = rng.standard_normal((n, 3))
        while True:
            X = rng.standard_normal((n, D_in))
            params = init_encoder(
                D_in, EncoderConfig(layer_widths=(4, 3)), seed=int(rng.integers(10_000))
            )
            _, cache = encode(X, params)
            if away_from_kinks(encoder_hidden_preacts(cache, params)):
                break

        def loss_for(params_):
            out, _ = encode(X, params_)
            return float((out * upstream).sum())

        _, cache = encode(X, params)
        dWs, dbs, dz0 = encoder_gradients(upstream, cache, params)
        dX = dz0 @ params.weights[0].T

        for li in range(2):
            def f_w(W, _li=li):
                ws = [W if i == _li else w for i, w in enumerate(params.weights)]
                return loss_for(LayerStack(ws, params.biases, params.slope))

            def f_b(b, _li=li):
                bs = [b if i == _li else x for i, x in enumerate(params.biases)]
                return loss_for(LayerStack(params.weights, bs, params.slope))

            assert max_rel_err(dWs[li], numeric_gradient(f_w, params.weights[li])) < 1e-6
            assert max_rel_err(dbs[li], numeric_gradient(f_b, params.biases[li])) < 1e-6

        def f_x(Xv):
            out, _ = encode(Xv, params)
            return float((out * upstream).sum())

        assert max_rel_err(dX, numeric_gradient(f_x, X)) < 1e-6


def test_gradient_shapes_follow_input_shape():
    params = init_encoder(4, EncoderConfig(layer_widths=(3,)), seed=0)
    for n in (1, 5):
        out, cache = encode(np.ones((n, 4)), params)
        dWs, dbs, dz0 = encoder_gradients(np.ones_like(out), cache, params)
        assert [dW.shape for dW in dWs] == [(4, 3)] and [db.shape for db in dbs] == [(3,)]
        assert dz0.shape == (n, 3)
        assert (dz0 @ params.weights[0].T).shape == (n, 4)
