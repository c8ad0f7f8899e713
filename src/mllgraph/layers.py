"""Dense layer stacks: the feature encoder and the graph-convolution head.

Both run h <- act(P(h) W + b) layer by layer, leaky between layers and
linear last. The encoder, h(HW + b), has P the identity; the GCN head,
h(B HW), has P = B before every layer after the first and no biases, since
its first input B Z is computed once by `propagate`. The head multiplies by
B, and by B^T on the way back, through a `LabelGraph` built once from B; a
plain (C, C) array works there too, as the dense operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Config, NONNEGATIVE, rule


@dataclass(frozen=True)
class EncoderConfig(Config):
    layer_widths: tuple[int, ...] = field(
        default=(16, 32), metadata=rule(lambda ws: min(ws, default=0) >= 1, "must be positive"))
    slope: float = field(default=0.2, metadata=NONNEGATIVE)

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
    """h <- act(P(h) W + b) per layer, P = B after the first layer when the LabelGraph B is given."""
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
    """(dW list, db list or None, dz0) from d(loss)/d(output); dz0 is d(first preactivation).

    B is the LabelGraph the forward pass propagated through, if any.
    """
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


# One gathered multiply-add costs about this many BLAS ones. Measured on a
# 2-vCPU Xeon with one OpenBLAS thread, at D = 32, over the seed-1 1000-class
# B-hat of the benchmark's wide-labels workload (12 843 non-zeros): gathering
# every row took 1.69 ns per non-zero and column of H for B H and 1.39 ns for
# B^T H, 25 and 20 times the dense products' 0.065 ns per multiply-add, and
# over the same graph this cutoff gave the fastest B H plus B^T H. A row with
# k non-zeros is gathered when k * _GATHER_COST < C: its k gathered terms then
# cost less than the C that a BLAS product spends on it, zeros included. Every
# row of the 39-class B-hat (k >= 4) stays dense.
_GATHER_COST = 24


@dataclass(frozen=True)
class _Rows:
    """The rows of one orientation of B, each on the path `LabelGraph` chose for it.

    `dense` holds the rows one BLAS product covers, as one contiguous block;
    each bucket (cols, vals) holds the m gathered rows with k non-zeros, as
    their columns (m, k) and values (m, 1, k), buckets in increasing k and
    rows in index order within each. `position` is each row's place in that
    stacking of the products, dense rows first. When every row is dense,
    `position` is None and `dense` is the matrix itself, so the product is
    exactly `matrix @ H`.
    """

    dense: np.ndarray
    buckets: tuple
    position: object

    @classmethod
    def split(cls, M: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "_Rows":
        """M's rows on their paths; (rows, cols, vals) are M's non-zeros in row-major order."""
        C = len(M)
        counts = np.bincount(rows, minlength=C)
        gather = counts * _GATHER_COST < C
        if not gather.any():
            return cls(M, (), None)
        starts = np.cumsum(counts) - counts  # where each row's non-zeros begin
        dense_rows = np.flatnonzero(~gather)
        gathered = np.flatnonzero(gather)
        gathered = gathered[np.argsort(counts[gathered], kind="stable")]  # by k, then by index
        ks, firsts = np.unique(counts[gathered], return_index=True)
        buckets = []
        for k, members in zip(ks, np.split(gathered, firsts[1:])):
            at = starts[members, None] + np.arange(k)
            buckets.append((cols[at], vals[at][:, None, :]))
        position = np.empty(C, dtype=np.intp)
        position[np.concatenate([dense_rows, gathered])] = np.arange(C)
        paths = cls(np.ascontiguousarray(M[dense_rows]), tuple(buckets), position)
        for arr in (paths.dense, paths.position, *(a for bucket in buckets for a in bucket)):
            arr.setflags(write=False)
        return paths

    def __matmul__(self, H: np.ndarray) -> np.ndarray:
        if self.position is None:
            return self.dense @ H
        stacked = np.empty((len(H), H.shape[1]))  # B is square
        n = len(self.dense)
        np.matmul(self.dense, H, out=stacked[:n])
        for cols, vals in self.buckets:
            m = len(cols)
            np.matmul(vals, H[cols], out=stacked[n:n + m, None])
            n += m
        return stacked[self.position]


class LabelGraph:
    """B-hat as the GCN head's propagation operator: `graph @ H` is B H, `graph.T @ G` is B^T G.

    Built once per graph, with each row of B and of B^T on the path the rule
    at `_GATHER_COST` picks: gathered in one `vals @ H[cols]` batched product
    per non-zero count, or in one BLAS product over the other rows. A
    gathered sum rounds differently from BLAS's, by a few ulp; an orientation
    with no gathered row multiplies by B itself, bit for bit, so B must not
    change while the operator is in use. Every array it holds is read-only.
    """

    def __init__(self, correlation):
        B = np.asarray(correlation, dtype=np.float64).view()
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"correlation must be a square (C, C) matrix, got shape {B.shape}")
        B.setflags(write=False)
        self.shape = B.shape
        C = len(B)
        r, c = np.divmod(np.flatnonzero(B != 0), C)  # B's non-zeros in row-major order
        v = B[r, c]
        by_col = np.argsort(c * C + r)  # the same non-zeros in B^T's row-major order
        self.rows = _Rows.split(B, r, c, v)
        self.T = _Rows.split(B.T, c[by_col], r[by_col], v[by_col])

    def __matmul__(self, H: np.ndarray) -> np.ndarray:
        return self.rows @ H


def propagate(embeddings: np.ndarray, graph: LabelGraph) -> np.ndarray:
    """B Z, the first layer's propagated input; fixed while Z and B are."""
    Z = np.asarray(embeddings, dtype=np.float64)
    if Z.ndim != 2 or graph.shape != (Z.shape[0], Z.shape[0]):
        raise ValueError("embeddings must be (C, d) with a matching (C, C) correlation")
    return graph @ Z


def gcn_forward(propagated: np.ndarray, graph: LabelGraph, stack: LayerStack):
    """Run G <- act(B G W) through the stack from B Z = propagate(Z, B).

    Returns (classifier, cache).
    """
    M = np.asarray(propagated, dtype=np.float64)
    if M.ndim != 2 or graph.shape != (M.shape[0], M.shape[0]):
        raise ValueError("B Z must be (C, d) with a matching (C, C) correlation")
    if M.shape[1] != stack.input_dim:
        raise ValueError(f"B Z width {M.shape[1]} != stack input {stack.input_dim}")
    return _forward(M, stack, graph)


def gcn_gradients(upstream: np.ndarray, cache: StackCache, graph: LabelGraph, stack: LayerStack):
    """Backpropagate d(loss)/d(classifier); returns (per-layer dW, dH0).

    dH0 is d(first layer's preactivation); d(B Z) is dH0 @ W0.T and
    d(embeddings) is B.T @ d(B Z), which training keeps frozen and skips.
    """
    dWs, _, dH0 = _backward(upstream, cache, stack, graph)
    return dWs, dH0
