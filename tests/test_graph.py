import numpy as np
import pytest

from mllgraph.layers import (
    LayerStack,
    gcn_forward,
    gcn_gradients,
    init_stack,
    propagate,
)

from gradcheck import away_from_kinks, gcn_hidden_preacts, max_rel_err, numeric_gradient


def test_init_stack_shapes_and_activations():
    stack = init_stack((6, 5, 4), seed=0)
    assert [W.shape for W in stack.weights] == [(6, 5), (5, 4)]
    assert stack.biases is None and stack.slope == 0.2
    assert stack.input_dim == 6


def test_init_stack_respects_fan_in_bounds():
    stack = init_stack((16, 8), seed=1)
    bound = 1.0 / np.sqrt(16)
    W = stack.weights[0]
    assert np.all(np.abs(W) <= bound)


def test_init_stack_is_deterministic():
    a = init_stack((4, 3), seed=5)
    b = init_stack((4, 3), seed=5)
    assert np.array_equal(a.weights[0], b.weights[0])


def test_init_stack_needs_two_dims():
    with pytest.raises(ValueError, match="input and output"):
        init_stack((4,))


def test_stack_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width mismatch"):
        LayerStack([np.ones((3, 4)), np.ones((5, 2))])


def test_single_identity_layer_is_plain_propagation():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((4, 3))
    B = rng.random((4, 4))
    W = rng.standard_normal((3, 2))
    stack = LayerStack([W])
    K, cache = gcn_forward(propagate(Z, B), B, stack)
    assert np.allclose(K, B @ Z @ W)
    assert np.allclose(cache.inputs[0], B @ Z)


def test_leaky_activation_between_layers():
    Z = np.array([[1.0], [-1.0]])
    B = np.eye(2)
    stack = LayerStack([np.array([[1.0]]), np.array([[1.0]])], slope=0.2)
    K, _ = gcn_forward(propagate(Z, B), B, stack)
    assert K[0, 0] == pytest.approx(1.0)
    assert K[1, 0] == pytest.approx(-0.2)


def test_forward_validates_shapes():
    stack = init_stack((3, 2), seed=0)
    with pytest.raises(ValueError, match="correlation"):
        propagate(np.ones((4, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="correlation"):
        gcn_forward(np.ones((4, 3)), np.ones((3, 3)), stack)
    with pytest.raises(ValueError, match="stack input"):
        gcn_forward(np.ones((4, 5)), np.ones((4, 4)), stack)


def test_gradients_match_numeric():
    rng = np.random.default_rng(2)
    for _ in range(6):
        C, d, D = 4, 3, 2
        B = rng.random((C, C))
        upstream = rng.standard_normal((C, D))
        while True:
            Z = rng.standard_normal((C, d))
            stack = init_stack((d, 3, D), seed=int(rng.integers(10_000)))
            _, cache = gcn_forward(propagate(Z, B), B, stack)
            if away_from_kinks(gcn_hidden_preacts(cache, stack)):
                break

        def loss_for(stack_):
            K, _ = gcn_forward(propagate(Z, B), B, stack_)
            return float((K * upstream).sum())

        K, cache = gcn_forward(propagate(Z, B), B, stack)
        dWs, dH0 = gcn_gradients(upstream, cache, B, stack)
        dZ = B.T @ (dH0 @ stack.weights[0].T)

        for li in range(2):
            def f(W, _li=li):
                weights = [W if i == _li else w for i, w in enumerate(stack.weights)]
                return loss_for(LayerStack(weights, slope=stack.slope))

            numeric = numeric_gradient(f, stack.weights[li])
            assert max_rel_err(dWs[li], numeric) < 1e-6

        def f_z(Zx):
            K2, _ = gcn_forward(propagate(Zx, B), B, stack)
            return float((K2 * upstream).sum())

        assert max_rel_err(dZ, numeric_gradient(f_z, Z)) < 1e-6
