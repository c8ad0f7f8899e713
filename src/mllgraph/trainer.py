"""Two-phase training pipeline, ablation variants, checkpoints, evaluation.

Phase 1 is closed-form given the data and seed: co-occurrence counts,
label embeddings, the normalized correlation matrix, and (for contrastive
variants) the surrogate cluster labels. Phase 2 trains the encoder and the
classifier with momentum SGD while everything from phase 1 stays frozen.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
import zlib
from dataclasses import dataclass, field

import numpy as np

from .cooccur import (
    AdjacencyConfig,
    CooccurrenceMatrix,
    WeightingConfig,
    build_adjacency,
    build_cooccurrence,
    normalize_adjacency,
)
from .corpus import Dataset, LabelVocabulary
from .encoder import EncoderConfig, EncoderParams, encode, encoder_gradients, init_encoder
from .glove import GloveConfig, train_glove
from .graph import GcnLayer, GcnStack, gcn_forward, gcn_gradients, init_gcn_stack, propagate
from .losses import (
    CONTRASTIVE_MODES,
    LossConfig,
    contrastive_loss_and_grad,
    mll_loss_and_grad,
    sigmoid,
)
from .metrics import ScoreTable, exact_match
from .relabel import KMeansResult, RelabeledDataset, kmeans, relabel
from .seeding import stage_rng, stage_seed

_VARIANT_FLAGS = {
    "Single-MLL": (False, "none"),
    "MLL-CL": (False, "vanilla"),
    "MLL-CRC": (False, "cluster_relabeled"),
    "MLL-GCN": (True, "none"),
    "MLL-GCN-CL": (True, "vanilla"),
    "MLL-GCN-CRC": (True, "cluster_relabeled"),
}
VARIANT_NAMES = tuple(_VARIANT_FLAGS)


@dataclass(frozen=True)
class VariantSpec:
    """One ablation cell: classifier shape plus contrastive labeling mode."""

    name: str
    use_gcn: bool
    contrastive_mode: str

    def __post_init__(self):
        if self.contrastive_mode not in CONTRASTIVE_MODES:
            raise ValueError(f"unknown contrastive mode: {self.contrastive_mode!r}")

    @classmethod
    def from_name(cls, name: str) -> "VariantSpec":
        if name not in _VARIANT_FLAGS:
            raise ValueError(
                f"unknown variant {name!r}; expected one of {', '.join(VARIANT_NAMES)}"
            )
        use_gcn, mode = _VARIANT_FLAGS[name]
        return cls(name=name, use_gcn=use_gcn, contrastive_mode=mode)


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 100
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    n_clusters: int = 10
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-6
    loss: LossConfig = field(default_factory=LossConfig)
    glove: GloveConfig = field(default_factory=GloveConfig)
    weighting: WeightingConfig = field(default_factory=WeightingConfig)
    adjacency: AdjacencyConfig = field(default_factory=AdjacencyConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if self.kmeans_max_iter < 1:
            raise ValueError("kmeans_max_iter must be positive")
        if self.kmeans_tol < 0:
            raise ValueError("kmeans_tol must be nonnegative")


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def config_from_dict(cls, data, where: str = ""):
    """Inverse of `dataclasses.asdict` for the config dataclasses.

    Nested config sections are rebuilt recursively; absent keys keep their
    defaults and unknown keys are rejected.
    """
    where = where or cls.__name__
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    types = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")
    kwargs = {}
    for key, value in data.items():
        if dataclasses.is_dataclass(types[key]):
            value = config_from_dict(types[key], value, key)
        kwargs[key] = value
    return cls(**kwargs)


class LinearHead:
    """Independent per-class rows: the classifier K is the parameter itself."""

    kind = "linear"

    def __init__(self, weights: np.ndarray):
        self.weights = weights

    @classmethod
    def init(cls, n_classes: int, embed_dim: int, rep_dim: int, seed: int) -> "LinearHead":
        bound = 1.0 / np.sqrt(rep_dim)
        return cls(np.random.default_rng(seed).uniform(-bound, bound, (n_classes, rep_dim)))

    @staticmethod
    def graph(X, cfg: AdjacencyConfig):
        """The correlation matrix this head propagates over: none."""
        return None

    @staticmethod
    def graph_input(Z, B):
        """The frozen input `forward` reads: none."""
        return None

    @property
    def params(self) -> list:
        return [self.weights]

    @params.setter
    def params(self, values) -> None:
        (self.weights,) = values

    def forward(self, BZ, B):
        return self.weights, None

    def backward(self, dK, cache, B) -> list:
        return [dK]

    def copy(self) -> "LinearHead":
        return LinearHead(self.weights.copy())

    def tensors(self) -> list:
        return [("classifier", self.weights)]

    def header_entry(self):
        return None

    @classmethod
    def from_checkpoint(cls, tensors: dict, entry) -> "LinearHead":
        return cls(tensors["classifier"])


class GcnHead:
    """ML-GCN head: graph convolutions map the label embeddings to K."""

    kind = "gcn"

    def __init__(self, stack: GcnStack):
        self.stack = stack

    @classmethod
    def init(cls, n_classes: int, embed_dim: int, rep_dim: int, seed: int) -> "GcnHead":
        return cls(init_gcn_stack((embed_dim, embed_dim, rep_dim), slope=0.2, seed=seed))

    @staticmethod
    def graph(X, cfg: AdjacencyConfig) -> np.ndarray:
        """The normalized label-correlation matrix B-hat built from the counts."""
        return normalize_adjacency(build_adjacency(X, cfg)).matrix

    @staticmethod
    def graph_input(Z, B) -> np.ndarray:
        """B-hat Z, the frozen input `forward` reads."""
        return propagate(Z, B)

    @property
    def params(self) -> list:
        return [layer.weights for layer in self.stack.layers]

    @params.setter
    def params(self, values) -> None:
        for layer, W in zip(self.stack.layers, values, strict=True):
            layer.weights = W

    def forward(self, BZ, B):
        return gcn_forward(BZ, B, self.stack)

    def backward(self, dK, cache, B) -> list:
        return gcn_gradients(dK, cache, B, self.stack)[0]

    def copy(self) -> "GcnHead":
        return GcnHead(GcnStack([
            GcnLayer(l.weights.copy(), l.activation, l.slope) for l in self.stack.layers
        ]))

    def tensors(self) -> list:
        return [(f"gcn.{i}.weight", l.weights) for i, l in enumerate(self.stack.layers)]

    def header_entry(self) -> list:
        return [{"activation": l.activation, "slope": l.slope} for l in self.stack.layers]

    @classmethod
    def from_checkpoint(cls, tensors: dict, entry) -> "GcnHead":
        return cls(GcnStack([
            GcnLayer(tensors[f"gcn.{i}.weight"], meta["activation"], meta["slope"])
            for i, meta in enumerate(entry)
        ]))


def head_type(variant: VariantSpec):
    """The classifier head a variant trains."""
    return GcnHead if variant.use_gcn else LinearHead


@dataclass
class Checkpoint:
    """Everything needed to score new samples and resume evaluation."""

    variant: VariantSpec
    config: TrainConfig
    vocabulary: LabelVocabulary
    encoder_params: EncoderParams
    head: object                      # head_type(variant)
    embeddings: np.ndarray            # frozen phase-1 label embeddings
    correlation: object               # (C, C) ndarray or None
    centroids: object                 # (N, d) ndarray or None
    epoch: int                        # epoch the retained parameters come from


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_exact_match: float


@dataclass
class PipelineResult:
    checkpoint: Checkpoint
    trace: list
    glove_loss_trace: np.ndarray
    cooccurrence: CooccurrenceMatrix
    relabeled: object        # RelabeledDataset or None
    kmeans_result: object    # KMeansResult or None


class _MomentumSGD:
    """Classic momentum: v <- m v - lr g; p <- p + v, over one flat buffer.

    The given parameters are copied into the buffer; `params` holds views of
    it with their shapes, in their order, and those views are what trains.
    """

    def __init__(self, params, learning_rate: float, momentum: float):
        self.flat = np.concatenate([p.ravel() for p in params])
        self.params = []
        offset = 0
        for p in params:
            self.params.append(self.flat[offset:offset + p.size].reshape(p.shape))
            offset += p.size
        self.velocity = np.zeros_like(self.flat)
        self.learning_rate = learning_rate
        self.momentum = momentum

    def step(self, grads) -> None:
        g = np.concatenate([g.ravel() for g in grads])
        g *= self.learning_rate
        self.velocity *= self.momentum
        self.velocity -= g
        self.flat += self.velocity


def vanilla_contrast_labels(dataset: Dataset) -> np.ndarray:
    """Plane-bucket labels: the sample's first plane index, or a shared no-plane bucket.

    The no-plane bucket is an always-set column after the plane bits, so
    the first set bit of each row is the label.
    """
    Y = dataset.labels_matrix()
    bits = np.concatenate([Y[:, dataset.vocabulary.sp_indices], np.ones((len(Y), 1), Y.dtype)], axis=1)
    return np.argmax(bits, axis=1).astype(np.int64)


def _snapshot_encoder(enc: EncoderParams) -> EncoderParams:
    return EncoderParams([W.copy() for W in enc.weights], [b.copy() for b in enc.biases], enc.slope)


def run_pipeline(train: Dataset, val: Dataset, variant: VariantSpec, cfg: TrainConfig) -> PipelineResult:
    """Run both phases and return the best-validation checkpoint.

    Per-stage randomness is derived from cfg.seed through fixed stage
    indices, so e.g. the k-means seed never shifts the batch order. The
    retained checkpoint is the earliest epoch with the highest validation
    exact-match.
    """
    if train.vocabulary != val.vocabulary:
        raise ValueError("train and val must share one vocabulary")
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and val must be nonempty")

    # phase 1: statistics, embeddings, correlation, surrogate labels
    X = build_cooccurrence(train)
    glove_res = train_glove(X.counts, cfg.glove, cfg.weighting, seed=stage_seed(cfg.seed, "glove_init"))
    Z = glove_res.embedding.vectors
    Head = head_type(variant)
    bhat = Head.graph(X, cfg.adjacency)

    relabeled = None
    km = None
    contrast_labels = None
    centroids = None
    if variant.contrastive_mode == "cluster_relabeled":
        km = kmeans(
            Z,
            cfg.n_clusters,
            seed=stage_seed(cfg.seed, "kmeans"),
            max_iter=cfg.kmeans_max_iter,
            tol=cfg.kmeans_tol,
        )
        relabeled = relabel(train, Z, km.model)
        contrast_labels = relabeled.assignments
        centroids = km.model.centroids
    elif variant.contrastive_mode == "vanilla":
        contrast_labels = vanilla_contrast_labels(train)

    # phase 2: encoder + classifier under momentum SGD. The phase-1 tensors
    # and the head's input built from them are made read-only, so an
    # in-place write to them raises.
    BZ = Head.graph_input(Z, bhat)
    for frozen in (Z, bhat, BZ):
        if frozen is not None:
            frozen.setflags(write=False)
    enc = init_encoder(train.feature_dim, cfg.encoder, seed=stage_seed(cfg.seed, "encoder_init"))
    head = Head.init(
        train.vocabulary.size, cfg.glove.d, cfg.encoder.output_dim,
        seed=stage_seed(cfg.seed, "classifier_init"),
    )
    n_enc = len(enc.weights)
    sgd = _MomentumSGD(enc.weights + enc.biases + head.params, cfg.learning_rate, cfg.momentum)
    enc = EncoderParams(sgd.params[:n_enc], sgd.params[n_enc:2 * n_enc], enc.slope)
    head.params = sgd.params[2 * n_enc:]
    rng_batches = stage_rng(cfg.seed, "batches")

    Xtr = train.features_matrix()
    Ytr = train.labels_matrix().astype(np.float64)
    Xval = val.features_matrix()
    Yval = val.labels_matrix()
    n = len(train)

    best_match = -1.0
    best = None
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        # the epoch's order gathered once; each batch is a slice (a view) of it
        perm = rng_batches.permutation(n)
        Xep, Yep = Xtr[perm], Ytr[perm]
        Lep = contrast_labels[perm] if contrast_labels is not None else None
        loss_sum = 0.0
        for bstart in range(0, n, cfg.batch_size):
            batch = slice(bstart, bstart + cfg.batch_size)
            reps, ecache = encode(Xep[batch], enc)
            K, hcache = head.forward(BZ, bhat)
            scores = reps @ K.T
            mll, d_scores = mll_loss_and_grad(scores, Yep[batch])
            d_reps = d_scores @ K
            total = mll
            if variant.contrastive_mode != "none":
                closs, d_reps_c = contrastive_loss_and_grad(reps, Lep[batch], cfg.loss)
                total = mll + cfg.loss.lam * closs
                d_reps = d_reps + cfg.loss.lam * d_reps_c
            if not math.isfinite(total):
                raise TrainingDivergedError(epoch, bstart // cfg.batch_size)
            dK = d_scores.T @ reps
            dWs_e, dbs_e, _ = encoder_gradients(d_reps, ecache, enc)
            sgd.step(dWs_e + dbs_e + head.backward(dK, hcache, bhat))
            loss_sum += total * reps.shape[0]
        val_reps, _ = encode(Xval, enc)
        K, _ = head.forward(BZ, bhat)
        probs = sigmoid(val_reps @ K.T)
        vm = exact_match(ScoreTable(probs, Yval, 0.5))
        trace.append(EpochRecord(epoch=epoch, train_loss=loss_sum / n, val_exact_match=vm))
        if vm > best_match:
            best_match = vm
            best = (epoch, _snapshot_encoder(enc), head.copy())

    best_epoch, best_enc, best_head = best
    checkpoint = Checkpoint(
        variant=variant,
        config=cfg,
        vocabulary=train.vocabulary,
        encoder_params=best_enc,
        head=best_head,
        embeddings=Z.copy(),
        correlation=bhat.copy() if bhat is not None else None,
        centroids=centroids.copy() if centroids is not None else None,
        epoch=best_epoch,
    )
    return PipelineResult(
        checkpoint=checkpoint,
        trace=trace,
        glove_loss_trace=glove_res.loss_trace,
        cooccurrence=X,
        relabeled=relabeled,
        kmeans_result=km,
    )


def classifier_matrix(cp: Checkpoint) -> np.ndarray:
    """The (C, D) classifier the checkpoint scores with."""
    K, _ = cp.head.forward(cp.head.graph_input(cp.embeddings, cp.correlation), cp.correlation)
    return K


def score_dataset(cp: Checkpoint, dataset: Dataset, threshold: float = 0.5) -> ScoreTable:
    if dataset.vocabulary != cp.vocabulary:
        raise ValueError("dataset vocabulary does not match the checkpoint")
    if len(dataset) == 0:
        raise ValueError("cannot score an empty dataset")
    reps, _ = encode(dataset.features_matrix(), cp.encoder_params)
    probs = sigmoid(reps @ classifier_matrix(cp).T)
    return ScoreTable(probs, dataset.labels_matrix(), threshold)


# ---------------------------------------------------------------------------
# checkpoint binary format
#
#   magic "MLLG" | u32 version | u32 header length | canonical header JSON
#   | per tensor: u64 byte length + little-endian float64 C-order payload
#   | u32 CRC-32 of everything before the footer
# ---------------------------------------------------------------------------

MAGIC = b"MLLG"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint I/O failures."""


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    def __init__(self, found: int):
        super().__init__(f"unsupported checkpoint version {found}; this build reads {FORMAT_VERSION}")
        self.found = found
        self.supported = FORMAT_VERSION


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


def _tensor_entries(cp: Checkpoint):
    entries = [("embeddings", cp.embeddings)]
    if cp.correlation is not None:
        entries.append(("correlation", cp.correlation))
    if cp.centroids is not None:
        entries.append(("centroids", cp.centroids))
    for i, (W, b) in enumerate(zip(cp.encoder_params.weights, cp.encoder_params.biases)):
        entries.append((f"encoder.{i}.weight", W))
        entries.append((f"encoder.{i}.bias", b))
    return entries + cp.head.tensors()


def checkpoint_bytes(cp: Checkpoint) -> bytes:
    entries = [(name, np.ascontiguousarray(arr, dtype=np.float64)) for name, arr in _tensor_entries(cp)]
    header = {
        "variant": cp.variant.name,
        "classifier_kind": cp.head.kind,
        "epoch": cp.epoch,
        "config": dataclasses.asdict(cp.config),
        "vocabulary": [{"name": n, "kind": k} for n, k in cp.vocabulary.entries],
        "encoder_slope": cp.encoder_params.slope,
        "gcn_layers": cp.head.header_entry(),
        "tensors": [
            {"name": name, "shape": list(arr.shape), "dtype": "<f8"} for name, arr in entries
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(header_bytes))
    out += header_bytes
    for _, arr in entries:
        blob = arr.astype("<f8", copy=False).tobytes(order="C")
        out += struct.pack("<Q", len(blob))
        out += blob
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def save_checkpoint(cp: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(cp))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointTruncatedError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.data)}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
    version = struct.unpack("<I", r.take(4))[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(version)
    header_len = struct.unpack("<I", r.take(4))[0]
    header_bytes = r.take(header_len)
    if len(data) - r.pos < 4:
        raise CheckpointTruncatedError("missing checksum footer")
    # verify integrity before trusting any parsed structure
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CheckpointChecksumError("checksum mismatch; the file is corrupted")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"unreadable header: {exc}") from exc

    # the header passed the checksum but may still lack keys or mistype them
    try:
        return _checkpoint_from_header(header, r)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointFormatError(f"malformed header: {type(exc).__name__}: {exc}") from exc


def _checkpoint_from_header(header: dict, r: _Reader) -> Checkpoint:
    tensors = {}
    for meta in header["tensors"]:
        nbytes = struct.unpack("<Q", r.take(8))[0]
        expected = int(np.prod(meta["shape"], dtype=np.int64)) * 8
        if nbytes != expected:
            raise CheckpointFormatError(
                f"tensor {meta['name']!r}: {nbytes} bytes for shape {meta['shape']}"
            )
        blob = r.take(nbytes)
        tensors[meta["name"]] = np.frombuffer(blob, dtype="<f8").reshape(meta["shape"]).copy()
    if len(r.data) - r.pos != 4:
        raise CheckpointFormatError("trailing bytes after the tensor payload")

    variant = VariantSpec.from_name(header["variant"])
    Head = head_type(variant)
    if header["classifier_kind"] != Head.kind:
        raise CheckpointFormatError(
            f"classifier_kind {header['classifier_kind']!r} does not match variant {variant.name}"
        )
    config = config_from_dict(TrainConfig, header["config"])
    vocab = LabelVocabulary(tuple((e["name"], e["kind"]) for e in header["vocabulary"]))
    n_enc = len(config.encoder.layer_widths)
    enc = EncoderParams(
        [tensors[f"encoder.{i}.weight"] for i in range(n_enc)],
        [tensors[f"encoder.{i}.bias"] for i in range(n_enc)],
        header["encoder_slope"],
    )
    cp = Checkpoint(
        variant=variant,
        config=config,
        vocabulary=vocab,
        encoder_params=enc,
        head=Head.from_checkpoint(tensors, header["gcn_layers"]),
        embeddings=tensors["embeddings"],
        correlation=tensors["correlation"] if Head is GcnHead else None,
        centroids=tensors["centroids"] if variant.contrastive_mode == "cluster_relabeled" else None,
        epoch=int(header["epoch"]),
    )
    # the file must hold exactly the tensors a save of this variant writes,
    # each with the shape training gives it
    stored = [meta["name"] for meta in header["tensors"]]
    entries = [(name, list(arr.shape)) for name, arr in _tensor_entries(cp)]
    if stored != [name for name, _ in entries]:
        raise CheckpointFormatError(
            f"tensors {stored} do not match the {[name for name, _ in entries]} "
            f"that variant {variant.name} stores"
        )
    expected = _saved_tensor_shapes(variant, config, vocab, enc.input_dim)
    if entries != expected:
        raise CheckpointFormatError(
            f"tensor shapes {_shape_list(entries)} do not match the {_shape_list(expected)} "
            f"that variant {variant.name} stores for {vocab.size} classes with this config"
        )
    return cp


def _saved_tensor_shapes(variant: VariantSpec, config: TrainConfig, vocab: LabelVocabulary,
                         input_dim: int) -> list:
    """(name, shape) of each tensor a save of this variant writes, in order.

    The shapes are those training builds from the vocabulary and config;
    the encoder's input (feature) width is the one the header does not fix.
    """
    Head = head_type(variant)
    C, d = vocab.size, config.glove.d
    crc = variant.contrastive_mode == "cluster_relabeled"
    stand_in = Checkpoint(
        variant=variant,
        config=config,
        vocabulary=vocab,
        encoder_params=init_encoder(input_dim, config.encoder),
        head=Head.init(C, d, config.encoder.output_dim, seed=0),
        embeddings=np.empty((C, d)),
        correlation=np.empty((C, C)) if Head is GcnHead else None,
        centroids=np.empty((config.n_clusters, d)) if crc else None,
        epoch=0,
    )
    return [(name, list(arr.shape)) for name, arr in _tensor_entries(stand_in)]


def _shape_list(entries) -> str:
    return ", ".join(f"{name}{shape}" for name, shape in entries)
