"""Stacked graph convolution mapping label embeddings to classifier rows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("leaky", "identity")


@dataclass
class GcnLayer:
    weights: np.ndarray
    activation: str = "leaky"
    slope: float = 0.2

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError("layer weights must be a matrix")
        if not np.all(np.isfinite(W)):
            raise ValueError("layer weights must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")
        self.weights = W


@dataclass
class GcnStack:
    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("stack needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError(
                    f"layer width mismatch: {a.weights.shape} feeds {b.weights.shape}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]


def init_gcn_stack(dims, *, slope: float = 0.2, seed: int = 0) -> GcnStack:
    """Fan-in uniform init; leaky activations between layers, identity last."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[i])
        W = rng.uniform(-bound, bound, (dims[i], dims[i + 1]))
        act = "identity" if i == len(dims) - 2 else "leaky"
        layers.append(GcnLayer(W, act, slope))
    return GcnStack(layers)


def _activate(H: np.ndarray, layer: GcnLayer) -> np.ndarray:
    if layer.activation == "identity":
        return H
    return np.where(H >= 0, H, layer.slope * H)


def _activation_grad(H: np.ndarray, layer: GcnLayer) -> np.ndarray:
    if layer.activation == "identity":
        return np.ones_like(H)
    return np.where(H >= 0, 1.0, layer.slope)


@dataclass
class GcnCache:
    propagated: list = field(default_factory=list)  # B G per layer, needed for dW
    preacts: list = field(default_factory=list)


def gcn_forward(embeddings: np.ndarray, correlation: np.ndarray, stack: GcnStack):
    """Run G <- act(B G W) through the stack; returns (classifier, cache)."""
    G = np.asarray(embeddings, dtype=np.float64)
    B = np.asarray(correlation, dtype=np.float64)
    if G.ndim != 2 or B.shape != (G.shape[0], G.shape[0]):
        raise ValueError("embeddings must be (C, d) with a matching (C, C) correlation")
    if G.shape[1] != stack.input_dim:
        raise ValueError(f"embedding width {G.shape[1]} != stack input {stack.input_dim}")
    cache = GcnCache()
    for layer in stack.layers:
        M = B @ G
        H = M @ layer.weights
        cache.propagated.append(M)
        cache.preacts.append(H)
        G = _activate(H, layer)
    return G, cache


def gcn_gradients(upstream: np.ndarray, cache: GcnCache, correlation: np.ndarray, stack: GcnStack):
    """Backpropagate d(loss)/d(classifier); returns (per-layer dW, d(embeddings))."""
    B = np.asarray(correlation, dtype=np.float64)
    dG = np.asarray(upstream, dtype=np.float64)
    n_layers = len(stack.layers)
    dWs = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        layer = stack.layers[i]
        dH = dG * _activation_grad(cache.preacts[i], layer)
        dWs[i] = cache.propagated[i].T @ dH
        dG = B.T @ (dH @ layer.weights.T)
    return dWs, dG
