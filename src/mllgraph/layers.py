"""Dense layer stacks: the feature encoder and the graph-convolution head.

Both run h <- act(P(h) W + b) layer by layer, leaky between layers and
linear last. The encoder, h(HW + b), has P the identity; the GCN head,
h(B HW), has P = B before every layer after the first and no biases, since
its first input B Z is computed once by `propagate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncoderConfig:
    layer_widths: tuple[int, ...] = (16, 32)
    slope: float = 0.2

    def __post_init__(self):
        widths = tuple(self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if not widths or any(w < 1 for w in widths):
            raise ValueError("layer_widths must be positive")
        if self.slope < 0:
            raise ValueError("slope must be nonnegative")

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


@dataclass
class LayerStack:
    """Weights, optional biases and the leaky slope of one dense stack."""

    weights: list
    biases: list | None = None
    slope: float = 0.2

    def __post_init__(self):
        if not self.weights:
            raise ValueError("stack needs at least one layer")
        if self.biases is not None:
            if len(self.weights) != len(self.biases):
                raise ValueError("need matching weight/bias lists")
            for W, b in zip(self.weights, self.biases):
                if W.shape[1] != b.shape[0]:
                    raise ValueError(f"bias {b.shape} does not match weights {W.shape}")
        for a, b in zip(self.weights, self.weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError(f"layer width mismatch: {a.shape} feeds {b.shape}")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "LayerStack":
        biases = None if self.biases is None else [b.copy() for b in self.biases]
        return LayerStack([W.copy() for W in self.weights], biases, self.slope)


def init_stack(dims, *, slope: float = 0.2, biases: bool = False, seed: int = 0) -> LayerStack:
    """Fan-in uniform weights drawn from `seed` layer by layer, zero biases if any."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    weights = []
    for i in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[i])
        weights.append(rng.uniform(-bound, bound, (dims[i], dims[i + 1])))
    return LayerStack(weights, [np.zeros(d) for d in dims[1:]] if biases else None, slope)


@dataclass
class StackCache:
    inputs: list   # each layer's input, after propagation
    slopes: list   # each hidden layer's rectifier factor: 1 where z >= 0, else the slope


def _forward(h: np.ndarray, stack: LayerStack, B=None):
    """h <- act(P(h) W + b) per layer, P = B after the first layer when B is given."""
    last = len(stack.weights) - 1
    inputs = []
    slopes = []
    for i, W in enumerate(stack.weights):
        if i and B is not None:
            h = B @ h
        inputs.append(h)
        h = h @ W
        if stack.biases is not None:
            h += stack.biases[i]
        if i < last:
            f = np.where(h >= 0, 1.0, stack.slope)
            slopes.append(f)
            h *= f
    return h, StackCache(inputs, slopes)


def _backward(upstream: np.ndarray, cache: StackCache, stack: LayerStack, B=None):
    """(dW list, db list or None, dz0) from d(loss)/d(output); dz0 is d(first preactivation)."""
    dh = np.asarray(upstream, dtype=np.float64)
    n_layers = len(stack.weights)
    dWs = [None] * n_layers
    dbs = None if stack.biases is None else [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dh *= cache.slopes[i]  # dh is the fresh product of the layer above
        dWs[i] = cache.inputs[i].T @ dh
        if dbs is not None:
            dbs[i] = dh.sum(axis=0)
        if i:
            dh = dh @ stack.weights[i].T
            if B is not None:
                dh = B.T @ dh
    return dWs, dbs, dh


def block_views(flat: np.ndarray, shapes) -> list:
    """Views of the 1-d `flat`, one per shape, laid end to end in order.

    Momentum SGD and the GloVe fit keep their parameters in one flat buffer
    this way, so an elementwise update is one operation over all of them.
    """
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


def init_encoder(input_dim: int, cfg: EncoderConfig, *, seed: int = 0) -> LayerStack:
    """Fan-in uniform weights drawn from `seed`, zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    return init_stack((input_dim,) + cfg.layer_widths, slope=cfg.slope, biases=True, seed=seed)


def encode(features: np.ndarray, params: LayerStack):
    """Map an (n, F) batch of features to (n, D) representations.

    Returns (representations, cache) with the cache feeding encoder_gradients.
    """
    h = np.asarray(features, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"features must be an (n, F) batch, got shape {h.shape}")
    if h.shape[1] != params.input_dim:
        raise ValueError(f"feature length {h.shape[1]} != encoder input {params.input_dim}")
    return _forward(h, params)


def encoder_gradients(upstream: np.ndarray, cache: StackCache, params: LayerStack):
    """Backprop d(loss)/d(representations); returns (dW list, db list, dz0).

    dz0 is d(first layer's preactivation), one row per sample; d(features)
    is dz0 @ W0.T, which training never needs and skips.
    """
    return _backward(upstream, cache, params)


def propagate(embeddings: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """B Z, the first layer's propagated input; fixed while Z and B are."""
    Z = np.asarray(embeddings, dtype=np.float64)
    B = np.asarray(correlation, dtype=np.float64)
    if Z.ndim != 2 or B.shape != (Z.shape[0], Z.shape[0]):
        raise ValueError("embeddings must be (C, d) with a matching (C, C) correlation")
    return B @ Z


def gcn_forward(propagated: np.ndarray, correlation: np.ndarray, stack: LayerStack):
    """Run G <- act(B G W) through the stack from B Z = propagate(Z, B).

    Returns (classifier, cache).
    """
    M = np.asarray(propagated, dtype=np.float64)
    B = np.asarray(correlation, dtype=np.float64)
    if M.ndim != 2 or B.shape != (M.shape[0], M.shape[0]):
        raise ValueError("B Z must be (C, d) with a matching (C, C) correlation")
    if M.shape[1] != stack.input_dim:
        raise ValueError(f"B Z width {M.shape[1]} != stack input {stack.input_dim}")
    return _forward(M, stack, B)


def gcn_gradients(upstream: np.ndarray, cache: StackCache, correlation: np.ndarray, stack: LayerStack):
    """Backpropagate d(loss)/d(classifier); returns (per-layer dW, dH0).

    dH0 is d(first layer's preactivation); d(B Z) is dH0 @ W0.T and
    d(embeddings) is B.T @ d(B Z), which training keeps frozen and skips.
    """
    dWs, _, dH0 = _backward(upstream, cache, stack, np.asarray(correlation, dtype=np.float64))
    return dWs, dH0
