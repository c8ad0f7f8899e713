"""Two-phase training pipeline, ablation variants, checkpoints, evaluation.

Phase 1 is closed-form given the data and seed: co-occurrence counts,
label embeddings, the normalized correlation matrix, and (for contrastive
variants) the surrogate cluster labels. Phase 2 trains the encoder and the
classifier with momentum SGD while everything from phase 1 stays frozen.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import Config, NONNEGATIVE, POSITIVE, _is_int, config_from_dict, within
from .cooccur import (
    AdjacencyConfig,
    WeightingConfig,
    build_adjacency,
    build_cooccurrence,
    normalize_adjacency,
)
from .corpus import Dataset, LabelVocabulary
from .glove import GloveConfig, train_glove
from .layers import (
    EncoderConfig,
    LabelGraph,
    LayerStack,
    block_views,
    encode,
    encoder_gradients,
    gcn_forward,
    gcn_gradients,
    init_encoder,
    init_stack,
    propagate,
)
from .losses import (
    CONTRASTIVE_MODES,
    LossConfig,
    contrastive_loss_and_grad,
    epoch_pair_terms,
    mll_loss_and_grad,
    sigmoid,
)
from .metrics import ScoreTable, exact_match
from .relabel import kmeans, relabel
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
        if name not in VARIANT_NAMES:  # a tuple: an unhashable name is refused too
            raise ValueError(
                f"unknown variant {name!r}; expected one of {', '.join(VARIANT_NAMES)}"
            )
        use_gcn, mode = _VARIANT_FLAGS[name]
        return cls(name=name, use_gcn=use_gcn, contrastive_mode=mode)


@dataclass(frozen=True)
class TrainConfig(Config):
    seed: int = field(default=0, metadata=NONNEGATIVE)
    epochs: int = field(default=100, metadata=POSITIVE)
    learning_rate: float = field(default=0.01, metadata=POSITIVE)
    momentum: float = field(default=0.9, metadata=within(0, 1, "[)"))
    batch_size: int = field(default=32, metadata=POSITIVE)
    n_clusters: int = field(default=10, metadata=POSITIVE)
    kmeans_max_iter: int = field(default=100, metadata=POSITIVE)
    kmeans_tol: float = field(default=1e-6, metadata=NONNEGATIVE)
    loss: LossConfig = field(default_factory=LossConfig)
    glove: GloveConfig = field(default_factory=GloveConfig)
    weighting: WeightingConfig = field(default_factory=WeightingConfig)
    adjacency: AdjacencyConfig = field(default_factory=AdjacencyConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class LinearHead:
    """Independent per-class rows: the classifier K is the parameter itself."""

    kind = "linear"
    layers = None  # the checkpoint header's gcn_layers
    names = ("classifier",)  # checkpoint names of `params`, in order

    def __init__(self, params, embeddings, correlation):
        """The head over these arrays (held, not copied); it reads neither Z nor B-hat."""
        (self.weights,) = params

    @classmethod
    def init(cls, embeddings, correlation, rep_dim: int, seed: int) -> "LinearHead":
        bound = 1.0 / np.sqrt(rep_dim)
        rng = np.random.default_rng(seed)
        return cls([rng.uniform(-bound, bound, (len(embeddings), rep_dim))], embeddings, correlation)

    def with_params(self, params) -> "LinearHead":
        """This head over other arrays (held, not copied)."""
        head = copy.copy(self)
        (head.weights,) = params
        return head

    @property
    def params(self) -> list:
        return [self.weights]

    def forward(self):
        return self.weights, None

    def backward(self, dK, cache) -> list:
        return [dK]

    @staticmethod
    def shapes(n_classes: int, embed_dim: int, rep_dim: int) -> list:
        """The shapes of `params` for these widths."""
        return [[n_classes, rep_dim]]


class GcnHead:
    """ML-GCN head: graph convolutions map the label embeddings Z over B-hat to K.

    The stack is always two bias-free layers, leaky then linear, at slope
    0.2; the checkpoint header records that pattern as `gcn_layers`. The
    LabelGraph of B-hat and the read-only B-hat Z are built once, with the
    head, and every head `with_params` makes shares them, so training and
    scoring multiply by the same operator bit for bit.
    """

    kind = "gcn"
    slope = 0.2
    layers = [{"activation": "leaky", "slope": slope}, {"activation": "identity", "slope": slope}]
    names = ("gcn.0.weight", "gcn.1.weight")

    def __init__(self, params, embeddings, correlation):
        self.stack = LayerStack(list(params), slope=self.slope)
        self.graph = LabelGraph(correlation)
        self.BZ = propagate(embeddings, self.graph)
        self.BZ.setflags(write=False)

    @classmethod
    def init(cls, embeddings, correlation, rep_dim: int, seed: int) -> "GcnHead":
        d = embeddings.shape[1]
        return cls(init_stack((d, d, rep_dim), slope=cls.slope, seed=seed).weights, embeddings, correlation)

    def with_params(self, params) -> "GcnHead":
        head = copy.copy(self)  # the graph and B-hat Z are shared
        head.stack = LayerStack(list(params), slope=self.slope)
        return head

    @property
    def params(self) -> list:
        return list(self.stack.weights)

    def forward(self):
        return gcn_forward(self.BZ, self.graph, self.stack)

    def backward(self, dK, cache) -> list:
        return gcn_gradients(dK, cache, self.graph, self.stack)[0]

    @staticmethod
    def shapes(n_classes: int, embed_dim: int, rep_dim: int) -> list:
        return [[embed_dim, embed_dim], [embed_dim, rep_dim]]


def head_type(variant: VariantSpec):
    """The classifier head a variant trains."""
    return GcnHead if variant.use_gcn else LinearHead


@dataclass
class Checkpoint:
    """Everything needed to score new samples and resume evaluation."""

    variant: VariantSpec
    config: TrainConfig
    vocabulary: LabelVocabulary
    encoder_params: LayerStack
    head: object                      # head_type(variant), over these embeddings and correlation
    embeddings: np.ndarray            # frozen phase-1 label embeddings
    correlation: object               # (C, C) ndarray or None
    centroids: object                 # (N, d) ndarray or None
    epoch: int                        # epoch the retained parameters come from


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_exact_match: float


@dataclass(frozen=True)
class Phase1:
    """What phase 1 fixes before phase 2 trains: every array is read-only."""

    cooccurrence: np.ndarray      # (C, C) int64 label co-occurrence counts of the train split
    glove_loss_trace: np.ndarray  # the GloVe loss at init and after each epoch
    embeddings: np.ndarray        # (C, d) label embeddings Z
    correlation: object           # (C, C) B-hat, or None without the GCN head
    centroids: object             # (n_clusters, d) k-means centroids, or None without cluster relabeling
    contrast_labels: object       # (n_train,) int64 contrastive class, or None without a contrastive term


@dataclass
class PipelineResult:
    checkpoint: Checkpoint  # shares the phase-1 record's arrays
    trace: list
    phase1: Phase1


class _MomentumSGD:
    """Classic momentum: v <- m v - lr g; p <- p + v, over one flat buffer.

    The given parameters are copied into the buffer; `params` holds views of
    it with their shapes, in their order, and those views are what trains.
    """

    def __init__(self, params, learning_rate: float, momentum: float):
        self.flat = np.concatenate([p.ravel() for p in params])
        self.params = block_views(self.flat, [p.shape for p in params])
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


def fit_phase1(train: Dataset, variant: VariantSpec, cfg: TrainConfig) -> Phase1:
    """Phase 1 on the train split: counts, GloVe embeddings, and what the variant adds.

    B-hat for the GCN head; k-means centroids over Z and each sample's
    nearest one for cluster relabeling; the plane buckets for vanilla
    contrast. Each stage draws from its own seed, derived from cfg.seed.
    """
    X = build_cooccurrence(train)
    glove_res = train_glove(X, cfg.glove, cfg.weighting, seed=stage_seed(cfg.seed, "glove_init"))
    Z = glove_res.embedding
    bhat = normalize_adjacency(build_adjacency(X, cfg.adjacency)) if variant.use_gcn else None
    centroids = contrast_labels = None
    if variant.contrastive_mode == "cluster_relabeled":
        centroids = kmeans(
            Z,
            cfg.n_clusters,
            seed=stage_seed(cfg.seed, "kmeans"),
            max_iter=cfg.kmeans_max_iter,
            tol=cfg.kmeans_tol,
        ).centroids
        contrast_labels = relabel(train, Z, centroids)
    elif variant.contrastive_mode == "vanilla":
        contrast_labels = vanilla_contrast_labels(train)
    phase1 = Phase1(X, glove_res.loss_trace, Z, bhat, centroids, contrast_labels)
    for arr in vars(phase1).values():
        if arr is not None:
            arr.setflags(write=False)
    return phase1


def run_pipeline(train: Dataset, val: Dataset, variant: VariantSpec, cfg: TrainConfig) -> PipelineResult:
    """Run both phases and return the best-validation checkpoint.

    Phase 2 trains the encoder and the head under momentum SGD against the
    read-only phase-1 record; an in-place write to any of its arrays, to the
    arrays of the LabelGraph the GCN head builds from B-hat, or to its B-hat Z,
    raises.
    Per-stage randomness is derived from cfg.seed through fixed stage
    indices, so e.g. the k-means seed never shifts the batch order. The
    retained checkpoint is the earliest epoch with the highest validation
    exact-match.
    """
    if train.vocabulary != val.vocabulary:
        raise ValueError("train and val must share one vocabulary")
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and val must be nonempty")

    phase1 = fit_phase1(train, variant, cfg)
    contrast_labels = phase1.contrast_labels
    enc = init_encoder(train.feature_dim, cfg.encoder, seed=stage_seed(cfg.seed, "encoder_init"))
    head = head_type(variant).init(
        phase1.embeddings, phase1.correlation, cfg.encoder.output_dim,
        seed=stage_seed(cfg.seed, "classifier_init"),
    )
    n_enc = len(enc.weights)
    sgd = _MomentumSGD(enc.weights + enc.biases + head.params, cfg.learning_rate, cfg.momentum)
    enc = LayerStack(sgd.params[:n_enc], sgd.params[n_enc:2 * n_enc], enc.slope)
    head = head.with_params(sgd.params[2 * n_enc:])
    rng_batches = stage_rng(cfg.seed, "batches")

    Xtr = train.features_matrix()
    Ytr = train.labels_matrix()
    Xval = val.features_matrix()
    Yval = val.labels_matrix()
    n = len(train)

    best_match = -1.0
    best = None
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        # the epoch's order gathered once; each batch is a slice (a view) of
        # it, and the contrastive pair terms of every batch are built up front
        perm = rng_batches.permutation(n)
        Xep, Yep = Xtr[perm], Ytr[perm]
        pair_terms = (
            epoch_pair_terms(contrast_labels[perm], cfg.batch_size, cfg.loss)
            if contrast_labels is not None else None
        )
        loss_sum = 0.0
        for k, bstart in enumerate(range(0, n, cfg.batch_size)):
            batch = slice(bstart, bstart + cfg.batch_size)
            reps, ecache = encode(Xep[batch], enc)
            K, hcache = head.forward()
            scores = reps @ K.T
            mll, d_scores = mll_loss_and_grad(scores, Yep[batch])
            d_reps = d_scores @ K
            total = mll
            if variant.contrastive_mode != "none":
                closs, d_reps_c = contrastive_loss_and_grad(reps, pair_terms[k])
                total = mll + cfg.loss.lam * closs
                d_reps = d_reps + cfg.loss.lam * d_reps_c
            if not math.isfinite(total):
                raise TrainingDivergedError(epoch, k)
            dK = d_scores.T @ reps
            dWs_e, dbs_e, _ = encoder_gradients(d_reps, ecache, enc)
            sgd.step(dWs_e + dbs_e + head.backward(dK, hcache))
            loss_sum += total * reps.shape[0]
        K, _ = head.forward()
        vm = exact_match(_score_table(Xval, enc, K, Yval, 0.5))
        trace.append(EpochRecord(epoch=epoch, train_loss=loss_sum / n, val_exact_match=vm))
        if vm > best_match:
            best_match = vm
            best = (epoch, enc.copy(), head.with_params([p.copy() for p in head.params]))

    best_epoch, best_enc, best_head = best
    checkpoint = Checkpoint(
        variant=variant,
        config=cfg,
        vocabulary=train.vocabulary,
        encoder_params=best_enc,
        head=best_head,
        embeddings=phase1.embeddings,
        correlation=phase1.correlation,
        centroids=phase1.centroids,
        epoch=best_epoch,
    )
    return PipelineResult(checkpoint=checkpoint, trace=trace, phase1=phase1)


def _score_table(features, enc: LayerStack, K, targets, threshold: float) -> ScoreTable:
    """sigmoid(encode(features) K^T) against the targets, with one (n, C) array alive.

    The encoder's cache goes as soon as `encode` returns, the
    representations once the scores are formed in the table, and the
    probabilities then overwrite the scores.
    """
    reps = encode(features, enc)[0]
    scores = np.empty((len(reps), len(K)))
    np.matmul(reps, K.T, out=scores)
    del reps
    return ScoreTable(sigmoid(scores, out=scores), targets, threshold)


def classifier_matrix(cp: Checkpoint) -> np.ndarray:
    """The (C, D) classifier the checkpoint scores with."""
    return cp.head.forward()[0]


def score_dataset(cp: Checkpoint, dataset: Dataset, threshold: float = 0.5) -> ScoreTable:
    """The checkpoint's probabilities on `dataset`."""
    if dataset.vocabulary != cp.vocabulary:
        raise ValueError("dataset vocabulary does not match the checkpoint")
    if len(dataset) == 0:
        raise ValueError("cannot score an empty dataset")
    features, targets = dataset.features_matrix(), dataset.labels_matrix()
    return _score_table(features, cp.encoder_params, classifier_matrix(cp), targets, threshold)


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


def checkpoint_header(variant: VariantSpec, config: TrainConfig, vocabulary: LabelVocabulary,
                      input_dim: int, epoch: int) -> dict:
    """The header a save of a checkpoint with these fields writes: every tensor's
    name and shape follow from the variant, vocabulary size, config and encoder
    input (feature) width, and `encoder_slope` is the config's."""
    Head = head_type(variant)
    C, d = vocabulary.size, config.glove.d
    shapes = [("embeddings", [C, d])]
    if variant.use_gcn:
        shapes.append(("correlation", [C, C]))
    if variant.contrastive_mode == "cluster_relabeled":
        shapes.append(("centroids", [config.n_clusters, d]))
    widths = [input_dim, *config.encoder.layer_widths]
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        shapes += [(f"encoder.{i}.weight", [w_in, w_out]), (f"encoder.{i}.bias", [w_out])]
    shapes += zip(Head.names, Head.shapes(C, d, config.encoder.output_dim))
    return {
        "variant": variant.name,
        "classifier_kind": Head.kind,
        "epoch": epoch,
        "config": dataclasses.asdict(config),
        "vocabulary": [{"name": n, "kind": k} for n, k in vocabulary.entries],
        "encoder_slope": config.encoder.slope,
        "gcn_layers": Head.layers,
        "tensors": [{"name": name, "shape": shape, "dtype": "<f8"} for name, shape in shapes],
    }


_ABSENT = object()  # a header key or list item that one of two headers lacks


def _canonical(value) -> str:
    """JSON text as a save writes it (sorted keys, no spaces); 'nothing' for an absent entry."""
    return "nothing" if value is _ABSENT else json.dumps(value, sort_keys=True, separators=(",", ":"))


def _first_difference(stored, rebuilt, path: str = "") -> str:
    """'<path>: the file has <value>, a save writes <value>' where two unequal headers first
    differ. Keys go in sorted order, lists of objects item by item, each shown by the "name"
    a save writes in it (a tensor's, a vocabulary entry's) or its index; other lists whole."""
    if isinstance(stored, dict) and isinstance(rebuilt, dict):
        items = [(f"{path}.{key}" if path else key, stored.get(key, _ABSENT), rebuilt.get(key, _ABSENT))
                 for key in sorted(set(stored) | set(rebuilt))]
    elif isinstance(stored, list) and isinstance(rebuilt, list) and any(isinstance(v, dict) for v in rebuilt):
        pairs = enumerate(itertools.zip_longest(stored, rebuilt, fillvalue=_ABSENT))
        items = [(f"{path}[{y.get('name', i) if isinstance(y, dict) else i}]", x, y) for i, (x, y) in pairs]
    else:
        return f"{path}: the file has {_canonical(stored)[:80]}, a save writes {_canonical(rebuilt)[:80]}"
    return next(_first_difference(x, y, where) for where, x, y in items if _canonical(x) != _canonical(y))


def _tensor_entries(cp: Checkpoint):
    entries = [("embeddings", cp.embeddings)]
    if cp.correlation is not None:
        entries.append(("correlation", cp.correlation))
    if cp.centroids is not None:
        entries.append(("centroids", cp.centroids))
    for i, (W, b) in enumerate(zip(cp.encoder_params.weights, cp.encoder_params.biases)):
        entries.append((f"encoder.{i}.weight", W))
        entries.append((f"encoder.{i}.bias", b))
    return entries + list(zip(cp.head.names, cp.head.params))


def _checkpoint_chunks(cp: Checkpoint):
    """The file a save of `cp` writes, as byte chunks: magic, version and header, then each
    tensor's length and little-endian payload (a view of the tensor, not a copy), then the
    CRC-32. Raises ValueError before the first chunk if the tensors or encoder slope are not
    the ones the header describes."""
    header = checkpoint_header(cp.variant, cp.config, cp.vocabulary, cp.encoder_params.input_dim, cp.epoch)
    entries = [(name, np.ascontiguousarray(arr, dtype=np.float64)) for name, arr in _tensor_entries(cp)]
    tensors = [{"name": name, "shape": list(arr.shape), "dtype": "<f8"} for name, arr in entries]
    if tensors != header["tensors"] or cp.encoder_params.slope != cp.config.encoder.slope:
        raise ValueError("checkpoint tensors or encoder slope do not match its variant, vocabulary and config")
    header_bytes = _canonical(header).encode("utf-8")
    chunks = [MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes]
    for _, arr in entries:
        payload = memoryview(arr.astype("<f8", copy=False)).cast("B")
        chunks += [struct.pack("<Q", payload.nbytes), payload]
    return _with_crc32(chunks)


def _with_crc32(chunks):
    """The chunks, then the CRC-32 of all of them, computed as they go out."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def checkpoint_bytes(cp: Checkpoint) -> bytes:
    return b"".join(_checkpoint_chunks(cp))


def save_checkpoint(cp: Checkpoint, path) -> None:
    chunks = _checkpoint_chunks(cp)  # a checkpoint its header does not describe raises before the file opens
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, accepting it only if its header is, as canonical
    JSON, the one a save of its own contents writes: `checkpoint_header` of
    the variant, config, vocabulary, epoch and encoder input width it holds."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())  # its slices are views: the CRC and the tensors read it in place
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointTruncatedError(f"needed {n} bytes at offset {pos}, file has {len(data)}")
        pos += n
        return data[pos - n:pos]

    magic = bytes(take(4))
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
    version = struct.unpack("<I", take(4))[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(version)
    header_len = struct.unpack("<I", take(4))[0]
    header_bytes = take(header_len)
    if len(data) - pos < 4:
        raise CheckpointTruncatedError("missing checksum footer")
    # verify integrity before trusting any parsed structure
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CheckpointChecksumError("checksum mismatch; the file is corrupted")
    try:
        header = json.loads(str(header_bytes, "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
        raise CheckpointFormatError(f"unreadable header: {exc}") from exc

    # the header passed the checksum but may still lack keys or mistype them
    try:
        variant = VariantSpec.from_name(header["variant"])
        config = config_from_dict(TrainConfig, header["config"])
        vocab = LabelVocabulary(tuple((e["name"], e["kind"]) for e in header["vocabulary"]))
        epoch = header["epoch"]
        input_dim = next((t["shape"][0] for t in header["tensors"] if t["name"] == "encoder.0.weight"), None)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointFormatError(f"malformed header: {type(exc).__name__}: {exc}") from exc
    if not (_is_int(epoch) and 1 <= epoch <= config.epochs):
        raise CheckpointFormatError(f"epoch {_canonical(epoch)[:40]} is not an integer in [1, {config.epochs}]")
    if not (_is_int(input_dim) and input_dim >= 1):
        raise CheckpointFormatError(
            f"encoder.0.weight: input width {_canonical(input_dim)[:40]} is not a positive integer"
        )
    expected = checkpoint_header(variant, config, vocab, input_dim, epoch)
    if _canonical(header) != _canonical(expected):
        where = _first_difference(header, expected)
        raise CheckpointFormatError(f"header differs from the one a save writes at {where}")

    tensors = {}
    for meta in expected["tensors"]:
        name, shape = meta["name"], meta["shape"]
        nbytes = struct.unpack("<Q", take(8))[0]
        if nbytes != math.prod(shape) * 8:
            raise CheckpointFormatError(f"tensor {name!r}: {nbytes} bytes for shape {shape}")
        arr = np.frombuffer(take(nbytes), dtype="<f8").reshape(shape).copy()
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(f"tensor {name!r} holds non-finite values")
        tensors[name] = arr
    if len(data) - pos != 4:
        raise CheckpointFormatError("trailing bytes after the tensor payload")

    n_enc = len(config.encoder.layer_widths)
    enc = [[tensors[f"encoder.{i}.{part}"] for i in range(n_enc)] for part in ("weight", "bias")]
    Head = head_type(variant)
    embeddings, correlation = tensors["embeddings"], tensors.get("correlation")
    return Checkpoint(
        variant=variant,
        config=config,
        vocabulary=vocab,
        encoder_params=LayerStack(*enc, config.encoder.slope),
        head=Head([tensors[name] for name in Head.names], embeddings, correlation),
        embeddings=embeddings,
        correlation=correlation,
        centroids=tensors.get("centroids"),
        epoch=epoch,
    )
