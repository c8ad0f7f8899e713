"""Two-phase training pipeline, ablation variants, checkpoints, evaluation.

Phase 1 is closed-form given the data and seed: co-occurrence counts,
label embeddings, the normalized correlation matrix, and (for contrastive
variants) the surrogate cluster labels. Phase 2 trains the encoder and the
classifier with momentum SGD while everything from phase 1 stays frozen.
"""

from __future__ import annotations

import dataclasses
import functools
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
        flags = _VARIANT_FLAGS[self.name] if self.name in VARIANT_NAMES else None
        if (self.use_gcn, self.contrastive_mode) != flags:
            raise ValueError(f"use_gcn={self.use_gcn!r}, contrastive_mode={self.contrastive_mode!r} "
                             f"are not the flags of variant {self.name!r}")

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
    """A batch's loss went non-finite, or, after an epoch's last batch, the
    validation scores of the parameters its step made did; batches count from 1."""

    def __init__(self, epoch: int, batch: int, what: str = "loss"):
        super().__init__(f"{what} became non-finite at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class LinearHead:
    """Independent per-class rows: the classifier K is the parameter itself."""

    kind = "linear"
    layers = None  # the checkpoint header's gcn_layers

    def __init__(self, tensors):
        """The head over its tensor of the checkpoint's table (held, not copied); it reads
        neither Z nor B-hat."""
        self.weights = tensors["classifier"]

    @staticmethod
    def draw(n_classes: int, embed_dim: int, rep_dim: int, seed: int) -> list:
        """The initial values of the head's tensors, in `tensor_layout` order: fan-in
        uniform rows drawn from `seed`."""
        bound = 1.0 / np.sqrt(rep_dim)
        return [np.random.default_rng(seed).uniform(-bound, bound, (n_classes, rep_dim))]

    def forward(self):
        return self.weights, None

    def backward(self, dK, cache) -> list:
        return [dK]


class GcnHead:
    """ML-GCN head: graph convolutions map the label embeddings Z over B-hat to K.

    The stack is always two bias-free layers, leaky then linear, at slope
    0.2; the checkpoint header records that pattern as `gcn_layers`. The
    LabelGraph of B-hat and the read-only B-hat Z are built once, with the
    head, and a checkpoint builds its head once, over the SGD views while it
    trains, so training and scoring multiply by the same operator bit for bit.
    """

    kind = "gcn"
    slope = 0.2
    layers = [{"activation": "leaky", "slope": slope}, {"activation": "identity", "slope": slope}]

    def __init__(self, tensors):
        self.stack = LayerStack([tensors["gcn.0.weight"], tensors["gcn.1.weight"]], slope=self.slope)
        self.graph = LabelGraph(tensors["correlation"])
        self.BZ = propagate(tensors["embeddings"], self.graph)
        self.BZ.setflags(write=False)

    @staticmethod
    def draw(n_classes: int, embed_dim: int, rep_dim: int, seed: int) -> list:
        return init_stack((embed_dim, embed_dim, rep_dim), seed=seed).weights

    def forward(self):
        return gcn_forward(self.BZ, self.graph, self.stack)

    def backward(self, dK, cache) -> list:
        return gcn_gradients(dK, cache, self.graph, self.stack)[0]


def head_type(variant: VariantSpec):
    """The classifier head a variant trains."""
    return GcnHead if variant.use_gcn else LinearHead


def tensor_layout(variant: VariantSpec, config: TrainConfig, n_classes: int, input_dim: int) -> list:
    """Every tensor of the variant's checkpoint as (name, shape), in file order: the
    frozen phase-1 arrays (Z, then B-hat for the GCN head and the k-means centroids for
    cluster relabeling), then the encoder's W0, b0, W1, b1, ..., then the head's."""
    C, d, rep_dim = n_classes, config.glove.d, config.encoder.output_dim
    layout = [("embeddings", (C, d))]
    if variant.use_gcn:
        layout.append(("correlation", (C, C)))
    if variant.contrastive_mode == "cluster_relabeled":
        layout.append(("centroids", (config.n_clusters, d)))
    widths = [input_dim, *config.encoder.layer_widths]
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        layout += [(f"encoder.{i}.weight", (w_in, w_out)), (f"encoder.{i}.bias", (w_out,))]
    if variant.use_gcn:
        return layout + [("gcn.0.weight", (d, d)), ("gcn.1.weight", (d, rep_dim))]
    return layout + [("classifier", (C, rep_dim))]


@dataclass
class Checkpoint:
    """Everything needed to score new samples and resume evaluation: the tensors, and
    the variant, config and vocabulary that lay them out (`tensor_layout`). The encoder
    and the head are built from the tensors on first use, each once."""

    variant: VariantSpec
    config: TrainConfig
    vocabulary: LabelVocabulary
    tensors: dict  # name -> array, in `tensor_layout` order
    epoch: int     # epoch the retained parameters come from

    @functools.cached_property
    def encoder(self) -> LayerStack:
        n = len(self.config.encoder.layer_widths)
        return LayerStack([self.tensors[f"encoder.{i}.weight"] for i in range(n)],
                          [self.tensors[f"encoder.{i}.bias"] for i in range(n)], self.config.encoder.slope)

    @functools.cached_property
    def head(self):
        """head_type(variant) over the tensors: the GCN head builds B-hat's LabelGraph here."""
        return head_type(self.variant)(self.tensors)


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
    exact-match, which `score_dataset` scores after each epoch: its
    parameters are copied out of the SGD buffer when it scores, and copied
    back in place once the last epoch has run. The checkpoint is made
    before training, over the phase-1 arrays and the SGD views, and
    training runs through the encoder and head it builds.
    """
    if train.vocabulary != val.vocabulary:
        raise ValueError("train and val must share one vocabulary")
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and val must be nonempty")

    phase1 = fit_phase1(train, variant, cfg)
    contrast_labels = phase1.contrast_labels
    enc = init_encoder(train.feature_dim, cfg.encoder, seed=stage_seed(cfg.seed, "encoder_init"))
    head_draw = head_type(variant).draw(*phase1.embeddings.shape, cfg.encoder.output_dim,
                                        seed=stage_seed(cfg.seed, "classifier_init"))
    # every trainable array is a view of the one SGD buffer, laid out in file order
    sgd = _MomentumSGD([*itertools.chain(*zip(enc.weights, enc.biases)), *head_draw],
                       cfg.learning_rate, cfg.momentum)
    names = [name for name, _ in tensor_layout(variant, cfg, train.vocabulary.size, train.feature_dim)]
    n_frozen = len(names) - len(sgd.params)  # the phase-1 arrays, each named as its record field
    tensors = dict(zip(names, [getattr(phase1, name) for name in names[:n_frozen]] + sgd.params))
    checkpoint = Checkpoint(variant, cfg, train.vocabulary, tensors, epoch=0)  # epoch: the best, below
    enc, head = checkpoint.encoder, checkpoint.head
    rng_batches = stage_rng(cfg.seed, "batches")

    Xtr = train.features_matrix()
    Ytr = train.labels_matrix()
    n = len(train)

    best_match = -1.0
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
            if pair_terms is not None:
                closs, d_reps_c = contrastive_loss_and_grad(reps, pair_terms[k])
                total = mll + cfg.loss.lam * closs
                d_reps = d_reps + cfg.loss.lam * d_reps_c
            if not math.isfinite(total):
                raise TrainingDivergedError(epoch, k + 1)
            dK = d_scores.T @ reps
            dWs_e, dbs_e, _ = encoder_gradients(d_reps, ecache, enc)
            sgd.step([*itertools.chain(*zip(dWs_e, dbs_e)), *head.backward(dK, hcache)])
            loss_sum += total * reps.shape[0]
        # no batch's loss has seen the last step: an overflow it caused shows in the scores
        try:
            vm = exact_match(score_dataset(checkpoint, val))
        except FloatingPointError as exc:
            raise TrainingDivergedError(epoch, k + 1, "validation scores") from exc
        trace.append(EpochRecord(epoch=epoch, train_loss=loss_sum / n, val_exact_match=vm))
        if vm > best_match:
            best_match, best_epoch, best = vm, epoch, sgd.flat.copy()

    sgd.flat[...] = best  # the checkpoint's tensors now hold the best epoch's parameters
    checkpoint.epoch = best_epoch
    return PipelineResult(checkpoint=checkpoint, trace=trace, phase1=phase1)


def score_dataset(cp: Checkpoint, dataset: Dataset, threshold: float = 0.5) -> ScoreTable:
    """The checkpoint's probabilities on `dataset`, with one (n, C) array alive.

    The encoder's cache goes as soon as `encode` returns and the
    representations once the scores are formed. Scores that overflowed, to
    NaN (which the score table would refuse with a message that hides the
    cause) or to infinity (which the sigmoid would saturate to 0 or 1
    unseen), raise FloatingPointError; max and min propagate both.
    """
    if dataset.vocabulary != cp.vocabulary:
        raise ValueError("dataset vocabulary does not match the checkpoint")
    if len(dataset) == 0:
        raise ValueError("cannot score an empty dataset")
    K = cp.head.forward()[0]
    reps = encode(dataset.features_matrix(), cp.encoder)[0]
    scores = np.empty((len(reps), len(K)))
    np.matmul(reps, K.T, out=scores)
    del reps
    if not (math.isfinite(scores.max()) and math.isfinite(scores.min())):
        raise FloatingPointError("non-finite scores: the model overflows on this dataset's features")
    return ScoreTable(sigmoid(scores, out=scores), dataset.labels_matrix(), threshold)


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
    """The header a save of a checkpoint with these fields writes: its tensors are
    `tensor_layout` of the variant, config, vocabulary size and encoder input
    (feature) width, and `encoder_slope` is the config's."""
    Head = head_type(variant)
    layout = tensor_layout(variant, config, vocabulary.size, input_dim)
    return {
        "variant": variant.name,
        "classifier_kind": Head.kind,
        "epoch": epoch,
        "config": dataclasses.asdict(config),
        "vocabulary": [{"name": n, "kind": k} for n, k in vocabulary.entries],
        "encoder_slope": config.encoder.slope,
        "gcn_layers": Head.layers,
        "tensors": [{"name": name, "shape": list(shape), "dtype": "<f8"} for name, shape in layout],
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


def _checkpoint_chunks(cp: Checkpoint):
    """The file a save of `cp` writes, as byte chunks: magic, version and header, then each
    tensor's length and little-endian payload (a view of the tensor, not a copy), then the
    CRC-32. Raises ValueError before the first chunk if the tensors are not the ones the
    header describes."""
    try:
        header = checkpoint_header(cp.variant, cp.config, cp.vocabulary, cp.encoder.input_dim, cp.epoch)
    except KeyError as exc:  # the encoder is built from tensors the table lacks
        raise ValueError(f"checkpoint tensors do not match its variant, vocabulary and config: no {exc}") from exc
    arrays = [np.ascontiguousarray(arr, dtype=np.float64) for arr in cp.tensors.values()]
    tensors = [{"name": name, "shape": list(arr.shape), "dtype": "<f8"} for name, arr in zip(cp.tensors, arrays)]
    if tensors != header["tensors"]:
        raise ValueError("checkpoint tensors do not match its variant, vocabulary and config")
    header_bytes = _canonical(header).encode("utf-8")
    chunks = [MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes]
    for arr in arrays:
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
    return Checkpoint(variant, config, vocab, tensors, epoch)
