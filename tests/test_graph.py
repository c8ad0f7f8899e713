import numpy as np
import pytest

from mllgraph.cooccur import AdjacencyConfig, build_adjacency, build_cooccurrence, normalize_adjacency
from mllgraph.corpus import SyntheticConfig, generate_synthetic, split_by_subject
from mllgraph.layers import (
    LabelGraph,
    LayerStack,
    gcn_forward,
    gcn_gradients,
    init_stack,
    propagate,
)
from mllgraph.seeding import stage_seed

from gradcheck import away_from_kinks, gcn_hidden_preacts, max_rel_err, numeric_gradient
from label_graphs import arrays_in, reweight_one_graph, sparse_label_graph


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


def _products_agree(graph, B, H):
    assert np.max(np.abs(graph @ H - B @ H)) <= 1e-12
    assert np.max(np.abs(graph.T @ H - B.T @ H)) <= 1e-12


def test_label_graph_gathers_sparse_rows_and_keeps_the_hub_dense():
    B = sparse_label_graph()
    graph = LabelGraph(B)
    H = np.random.default_rng(1).standard_normal((len(B), 7))
    _products_agree(graph, B, H)
    # the hub is B's one dense row; every column of B is gathered
    assert np.array_equal(graph.rows.dense, B[-1:])
    assert len(graph.T.dense) == 0
    # a row holding only its self-loop is that entry times H's row, exactly
    assert np.count_nonzero(B[:10]) == 10
    assert np.array_equal((graph @ H)[:10], np.diagonal(B)[:10, None] * H[:10])


def test_label_graph_handles_a_zero_diagonal_and_empty_columns():
    B = reweight_one_graph()
    assert not np.any(np.diagonal(B))
    empty = np.flatnonzero(~B.any(axis=0))
    assert len(empty) == len(B) // 3
    graph = LabelGraph(B)
    assert graph.rows.position is not None and graph.T.position is not None
    H = np.random.default_rng(2).standard_normal((len(B), 4))
    _products_agree(graph, B, H)
    assert not np.any((graph.T @ H)[empty])


def test_label_graph_arrays_are_read_only():
    graph = LabelGraph(sparse_label_graph())
    arrays = arrays_in(graph)
    assert len(arrays) > 10  # both orientations' dense blocks, positions and buckets
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] += 1


def test_label_graph_leaves_its_input_writable_and_refuses_a_non_square_one():
    B = np.eye(3)
    LabelGraph(B)
    B[0, 0] = 2.0
    with pytest.raises(ValueError, match="square"):
        LabelGraph(np.ones((2, 3)))


@pytest.mark.parametrize("mode", ["binarized", "conditional"])
def test_default_label_graph_stays_dense(mode):
    """Every row of the 39-class B-hat, and of its transpose, is on the dense path: B @ H bit for bit."""
    for seed in (1, 2, 3):
        corpus = generate_synthetic(SyntheticConfig(seed=seed))
        train = split_by_subject(corpus, (0.45, 0.27, 0.28), stage_seed(seed, "split"))[0]
        B = normalize_adjacency(build_adjacency(build_cooccurrence(train), AdjacencyConfig(mode=mode)))
        graph = LabelGraph(B)
        assert graph.rows.position is None and graph.T.position is None
        H = np.random.default_rng(seed).standard_normal((len(B), 32))
        assert np.array_equal(graph @ H, B @ H)
        assert np.array_equal(graph.T @ H, B.T @ H)
