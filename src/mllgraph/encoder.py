"""Feature encoder: a small leaky-rectifier MLP with a linear last layer."""

from __future__ import annotations

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
class EncoderParams:
    weights: list
    biases: list
    slope: float = 0.2

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
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


def init_encoder(input_dim: int, cfg: EncoderConfig, *, seed: int = 0) -> EncoderParams:
    """Fan-in uniform weights drawn from `seed`, zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    rng = np.random.default_rng(seed)
    dims = (input_dim,) + cfg.layer_widths
    weights = []
    biases = []
    for i in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[i])
        weights.append(rng.uniform(-bound, bound, (dims[i], dims[i + 1])))
        biases.append(np.zeros(dims[i + 1]))
    return EncoderParams(weights, biases, cfg.slope)


@dataclass
class EncodeCache:
    inputs: list   # each layer's input
    slopes: list   # each hidden layer's rectifier factor: 1 where z >= 0, else the slope


def encode(features: np.ndarray, params: EncoderParams):
    """Map an (n, F) batch of features to (n, D) representations.

    Hidden layers use the leaky rectifier z * f with f = 1 where z >= 0 and
    the slope elsewhere; the last layer is linear. Returns (representations,
    cache) with the cache feeding encoder_gradients.
    """
    h = np.asarray(features, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"features must be an (n, F) batch, got shape {h.shape}")
    if h.shape[1] != params.input_dim:
        raise ValueError(f"feature length {h.shape[1]} != encoder input {params.input_dim}")
    n_layers = len(params.weights)
    inputs = []
    slopes = []
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ W
        h += b
        if i < n_layers - 1:
            f = np.where(h >= 0, 1.0, params.slope)
            slopes.append(f)
            h *= f
    return h, EncodeCache(inputs, slopes)


def encoder_gradients(upstream: np.ndarray, cache: EncodeCache, params: EncoderParams):
    """Backprop d(loss)/d(representations); returns (dW list, db list, dz0).

    dz0 is d(first layer's preactivation), one row per sample; d(features)
    is dz0 @ W0.T, which training never needs and skips.
    """
    dh = np.asarray(upstream, dtype=np.float64)
    n_layers = len(params.weights)
    dWs = [None] * n_layers
    dbs = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dh *= cache.slopes[i]  # dh is the fresh product of the layer above
        dWs[i] = cache.inputs[i].T @ dh
        dbs[i] = dh.sum(axis=0)
        if i:
            dh = dh @ params.weights[i].T
    return dWs, dbs, dh
