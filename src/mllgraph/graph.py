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


@dataclass
class GcnCache:
    propagated: list = field(default_factory=list)  # B G per layer, needed for dW
    slopes: list = field(default_factory=list)      # leaky factor per layer, None for identity


def propagate(embeddings: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """B Z, the first layer's propagated input; fixed while Z and B are."""
    Z = np.asarray(embeddings, dtype=np.float64)
    B = np.asarray(correlation, dtype=np.float64)
    if Z.ndim != 2 or B.shape != (Z.shape[0], Z.shape[0]):
        raise ValueError("embeddings must be (C, d) with a matching (C, C) correlation")
    return B @ Z


def gcn_forward(propagated: np.ndarray, correlation: np.ndarray, stack: GcnStack):
    """Run G <- act(B G W) through the stack from B Z = propagate(Z, B).

    Returns (classifier, cache).
    """
    M = np.asarray(propagated, dtype=np.float64)
    B = np.asarray(correlation, dtype=np.float64)
    if M.ndim != 2 or B.shape != (M.shape[0], M.shape[0]):
        raise ValueError("B Z must be (C, d) with a matching (C, C) correlation")
    if M.shape[1] != stack.input_dim:
        raise ValueError(f"B Z width {M.shape[1]} != stack input {stack.input_dim}")
    cache = GcnCache()
    for i, layer in enumerate(stack.layers):
        if i:
            M = B @ G
        cache.propagated.append(M)
        G = M @ layer.weights
        f = None
        if layer.activation == "leaky":
            f = np.where(G >= 0, 1.0, layer.slope)
            G *= f
        cache.slopes.append(f)
    return G, cache


def gcn_gradients(upstream: np.ndarray, cache: GcnCache, correlation: np.ndarray, stack: GcnStack):
    """Backpropagate d(loss)/d(classifier); returns (per-layer dW, dH0).

    dH0 is d(first layer's preactivation); d(B Z) is dH0 @ W0.T and
    d(embeddings) is B.T @ d(B Z), which training keeps frozen and skips.
    """
    B = np.asarray(correlation, dtype=np.float64)
    dG = np.asarray(upstream, dtype=np.float64)
    n_layers = len(stack.layers)
    dWs = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        f = cache.slopes[i]
        dH = dG if f is None else dG * f
        dWs[i] = cache.propagated[i].T @ dH
        if i:
            dG = B.T @ (dH @ stack.layers[i].weights.T)
    return dWs, dH
