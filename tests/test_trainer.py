import dataclasses
import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from mllgraph import trainer
from mllgraph.cooccur import AdjacencyConfig, build_adjacency, build_cooccurrence, normalize_adjacency
from mllgraph.corpus import (
    Dataset,
    LabelVocabulary,
    SyntheticConfig,
    generate_synthetic,
    split_by_subject,
    synthetic_vocabulary,
)
from mllgraph.layers import EncoderConfig, init_encoder
from mllgraph.glove import GloveConfig
from mllgraph.metrics import compute_report
from mllgraph.trainer import (
    VARIANT_NAMES,
    Checkpoint,
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    GcnHead,
    LinearHead,
    TrainConfig,
    TrainingDivergedError,
    VariantSpec,
    checkpoint_bytes,
    config_from_dict,
    fit_phase1,
    load_checkpoint,
    run_pipeline,
    save_checkpoint,
    score_dataset,
    vanilla_contrast_labels,
)

from label_graphs import arrays_in


def empty_dataset(vocab):
    return Dataset(vocab, [], [], np.zeros((0, 0)), np.zeros((0, vocab.size)))


def read_header(raw: bytes):
    """The JSON header of a checkpoint's bytes."""
    (n,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + n])


def with_header(raw: bytes, header) -> bytes:
    """Checkpoint bytes with the header replaced and a valid CRC footer."""
    (n,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps(header).encode("utf-8")
    body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def with_tensors(raw: bytes, names, **header_changes) -> bytes:
    """Checkpoint bytes holding only the named tensors, in that order, with a valid CRC.

    A name may be given as (new name, stored name) to store a tensor under
    another name; header_changes replace other header keys.
    """
    header = read_header(raw)
    (n,) = struct.unpack("<I", raw[8:12])
    pos = 12 + n
    stored = {}
    for meta in header["tensors"]:
        (size,) = struct.unpack("<Q", raw[pos:pos + 8])
        stored[meta["name"]] = (meta, raw[pos:pos + 8 + size])
        pos += 8 + size
    pairs = [name if isinstance(name, tuple) else (name, name) for name in names]
    metas = [dict(stored[old][0], name=new) for new, old in pairs]
    blob = json.dumps(dict(header, tensors=metas, **header_changes)).encode("utf-8")
    body = raw[:8] + struct.pack("<I", len(blob)) + blob + b"".join(stored[old][1] for _, old in pairs)
    return body + struct.pack("<I", zlib.crc32(body))


def with_shapes(raw: bytes, shapes: dict, **header_changes) -> bytes:
    """Checkpoint bytes whose header declares the given shapes for the named
    tensors (same byte counts), with a valid CRC; header_changes replace
    other header keys."""
    header = read_header(raw)
    metas = [dict(meta, shape=shapes.get(meta["name"], meta["shape"])) for meta in header["tensors"]]
    return with_header(raw, dict(header, tensors=metas, **header_changes))


def with_value(raw: bytes, name: str, value: float) -> bytes:
    """Checkpoint bytes with the first element of the named tensor set to `value`, with a valid CRC."""
    (n,) = struct.unpack("<I", raw[8:12])
    pos = 12 + n
    for meta in read_header(raw)["tensors"]:
        (size,) = struct.unpack("<Q", raw[pos:pos + 8])
        if meta["name"] == name:
            body = raw[:pos + 8] + struct.pack("<d", value) + raw[pos + 16:-4]
            return body + struct.pack("<I", zlib.crc32(body))
        pos += 8 + size
    raise KeyError(name)


def header_edits(header: dict) -> list:
    """(name, edited header, message pattern) for edits of a checksummed
    MLL-GCN-CRC header, trained with `small_train_config`, that a save of the
    edited header's own contents would not write; each message names the
    key where the edit sits."""
    config, vocab, tensors = header["config"], header["vocabulary"], header["tensors"]

    def with_tensor(name, **changes):
        return dict(header, tensors=[dict(t, **changes) if t["name"] == name else t for t in tensors])

    return [
        ("encoder_slope", dict(header, encoder_slope=0.7), "encoder_slope: the file has 0.7, a save writes 0.2"),
        ("big_endian", with_tensor("embeddings", dtype=">f8"),
         r'tensors\[embeddings\]\.dtype: the file has ">f8", a save writes "<f8"'),
        ("int8", with_tensor("encoder.0.bias", dtype="|i1"), r'tensors\[encoder.0.bias\]\.dtype: the file has "\|i1"'),
        ("epoch_float", dict(header, epoch=2.5), r"epoch 2.5 is not an integer in \[1, 3\]"),
        ("epoch_bool", dict(header, epoch=True), r"epoch true is not an integer in \[1, 3\]"),
        ("epoch_zero", dict(header, epoch=0), r"epoch 0 is not an integer in \[1, 3\]"),
        ("epoch_past_run", dict(header, epoch=4), r"epoch 4 is not an integer in \[1, 3\]"),
        ("config_key_removed", dict(header, config={k: v for k, v in config.items() if k != "kmeans_tol"}),
         "config.kmeans_tol: the file has nothing, a save writes 1e-06"),
        ("vocabulary_extra_key", dict(header, vocabulary=[dict(vocab[0], color="red")] + vocab[1:]),
         rf'vocabulary\[{re.escape(vocab[0]["name"])}\]\.color: the file has "red", a save writes nothing'),
        ("vocabulary_int_name", dict(header, vocabulary=[dict(vocab[0], name=7)] + vocab[1:]),
         r"malformed header: ValueError: vocabulary entry 0: name and kind must be strings, got int and str"),
        ("extra_key", dict(header, note="hand-edited"), 'note: the file has "hand-edited", a save writes nothing'),
        ("zero_input_width", with_tensor("encoder.0.weight", shape=[0, 8]),
         "encoder.0.weight: input width 0 is not a positive integer"),
    ]


# a GCN layer list on a linear-head checkpoint, whose header holds null there
LINEAR_GCN_LAYERS = ([{"activation": "relu", "slope": 9}],
                     r'gcn_layers: the file has \[\{"activation":"relu","slope":9\}\], a save writes null')


def small_train_config(**overrides) -> TrainConfig:
    base = dict(
        epochs=3,
        batch_size=16,
        n_clusters=4,
        glove=GloveConfig(d=8, epochs=30),
        encoder=EncoderConfig(layer_widths=(8, 16)),
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_splits():
    cfg = SyntheticConfig(
        n_samples=120,
        sp_count=3,
        as_count=6,
        feature_dim=16,
        noise_sigma=1.0,
        samples_per_subject=5,
        seed=1,
    )
    data = generate_synthetic(cfg)
    return split_by_subject(data, (0.6, 0.2, 0.2), seed=0)


@pytest.fixture(scope="module")
def crc_result(small_splits):
    train, val, _ = small_splits
    variant = VariantSpec.from_name("MLL-GCN-CRC")
    return run_pipeline(train, val, variant, small_train_config())


def test_variant_names_cover_the_ablation_grid():
    assert VARIANT_NAMES == (
        "Single-MLL", "MLL-CL", "MLL-CRC", "MLL-GCN", "MLL-GCN-CL", "MLL-GCN-CRC",
    )
    spec = VariantSpec.from_name("MLL-GCN-CL")
    assert spec.use_gcn and spec.contrastive_mode == "vanilla"
    assert not VariantSpec.from_name("Single-MLL").use_gcn
    assert VariantSpec.from_name("MLL-CRC").contrastive_mode == "cluster_relabeled"
    with pytest.raises(ValueError, match="Single-MLL"):
        VariantSpec.from_name("GCN")
    with pytest.raises(ValueError, match="contrastive mode"):
        VariantSpec(name="x", use_gcn=False, contrastive_mode="triplet")


def test_train_config_validation():
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="n_clusters"):
        TrainConfig(n_clusters=0)


def test_train_config_dict_roundtrip():
    cfg = small_train_config(seed=7, learning_rate=0.02)
    data = dataclasses.asdict(cfg)
    back = config_from_dict(TrainConfig, json.loads(json.dumps(data)))
    assert back == cfg
    assert back.encoder.layer_widths == (8, 16)
    assert config_from_dict(TrainConfig, {"glove": {"d": 4}}) == TrainConfig(
        glove=dataclasses.replace(TrainConfig().glove, d=4)
    )


def test_default_config_dict_matches_checkpoint_header_json():
    # the checkpoint header stores the config as this exact JSON text
    text = json.dumps(dataclasses.asdict(TrainConfig()), sort_keys=True, separators=(",", ":"))
    assert text == (
        '{"adjacency":{"mode":"binarized","reweight":0.2,"threshold":0.4},"batch_size":32,'
        '"encoder":{"layer_widths":[16,32],"slope":0.2},"epochs":100,'
        '"glove":{"beta1":0.9,"beta2":0.999,"d":32,"epochs":256,"eps":1e-08,'
        '"init_scale":0.05,"learning_rate":0.001},"kmeans_max_iter":100,"kmeans_tol":1e-06,'
        '"learning_rate":0.01,"loss":{"alpha":0.75,"beta":0.25,'
        '"contrastive_normalization":"pair_mean","lam":0.1},"momentum":0.9,"n_clusters":10,'
        '"seed":0,"weighting":{"exponent":0.75,"x_max":100.0}}'
    )


def test_train_config_from_dict_rejects_unknown_keys():
    data = dataclasses.asdict(TrainConfig())
    data["momentum_decay"] = 0.5
    with pytest.raises(ValueError, match="unknown key 'momentum_decay'"):
        config_from_dict(TrainConfig, data)
    data = dataclasses.asdict(TrainConfig())
    data["glove"]["warmup"] = 10
    with pytest.raises(ValueError, match="unknown key 'warmup'"):
        config_from_dict(TrainConfig, data)
    data = dataclasses.asdict(TrainConfig())
    data["glove"]["seed"] = 3  # sub-seeds derive from the root seed, never stored
    with pytest.raises(ValueError, match="unknown key 'seed'"):
        config_from_dict(TrainConfig, data)
    with pytest.raises(ValueError, match="expected an object"):
        config_from_dict(TrainConfig, {"loss": [0.5]})


def test_vanilla_contrast_labels_buckets_by_plane():
    vocab = synthetic_vocabulary(2, 2)
    bits = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    labels = vanilla_contrast_labels(Dataset(vocab, ["a", "b", "c"], ["s0", "s0", "s1"], np.zeros((3, 3)), bits))
    assert labels.tolist() == [0, 1, 2]


def loop_vanilla_contrast_labels(dataset):
    """Reference: the per-sample loop vanilla_contrast_labels replaced."""
    sp_idx = dataset.vocabulary.sp_indices
    out = np.empty(len(dataset), dtype=np.int64)
    for i, labels in enumerate(dataset.labels):
        bits = labels[sp_idx]
        out[i] = int(np.argmax(bits)) if bits.any() else sp_idx.size
    return out


def test_vanilla_contrast_labels_matches_loop_reference():
    rng = np.random.default_rng(4)
    vocabs = [synthetic_vocabulary(3, 4), synthetic_vocabulary(1, 2),
              LabelVocabulary((("x", "AS"), ("y", "AS"), ("z", "SP"), ("w", "AS")))]
    for vocab in vocabs:
        rows = (rng.random((25, vocab.size)) < 0.4).astype(np.uint8)
        rows[:5, vocab.sp_indices] = 0                     # samples with no plane
        rows[np.flatnonzero(rows.sum(axis=1) == 0), -1] = 1  # every sample needs a label (AS)
        data = Dataset(vocab, [f"s{i}" for i in range(25)], ["p"] * 25, np.zeros((25, 2)), rows)
        labels = vanilla_contrast_labels(data)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, loop_vanilla_contrast_labels(data))


def test_pipeline_trace_and_checkpoint_shape_single(small_splits):
    train, val, _ = small_splits
    res = run_pipeline(train, val, VariantSpec.from_name("Single-MLL"), small_train_config())
    assert [r.epoch for r in res.trace] == [1, 2, 3]
    assert all(0.0 <= r.val_exact_match <= 1.0 for r in res.trace)
    assert all(np.isfinite(r.train_loss) for r in res.trace)
    cp = res.checkpoint
    assert isinstance(cp.head, LinearHead)
    assert cp.head.weights.shape == (train.vocabulary.size, 16)
    assert cp.correlation is None and cp.centroids is None
    assert res.phase1.centroids is None and res.phase1.contrast_labels is None
    assert np.array_equal(res.phase1.cooccurrence, build_cooccurrence(train))
    assert res.phase1.glove_loss_trace.shape == (31,)
    K = cp.head.forward()[0]
    assert K.shape == (train.vocabulary.size, 16)


def test_pipeline_gcn_crc_artifacts(crc_result, small_splits):
    train, _, _ = small_splits
    cp = crc_result.checkpoint
    assert isinstance(cp.head, GcnHead)
    assert [W.shape for W in cp.head.params] == [(8, 8), (8, 16)]
    assert cp.correlation.shape == (train.vocabulary.size, train.vocabulary.size)
    assert cp.centroids.shape == (4, 8)
    assert crc_result.phase1.contrast_labels.shape == (len(train),)
    assert crc_result.phase1.centroids.shape == (4, 8)
    assert cp.head.forward()[0].shape == (train.vocabulary.size, 16)


def test_pipeline_is_deterministic(small_splits):
    train, val, _ = small_splits
    variant = VariantSpec.from_name("MLL-GCN")
    a = run_pipeline(train, val, variant, small_train_config())
    b = run_pipeline(train, val, variant, small_train_config())
    assert np.array_equal(a.checkpoint.head.forward()[0], b.checkpoint.head.forward()[0])
    assert checkpoint_bytes(a.checkpoint) == checkpoint_bytes(b.checkpoint)
    assert [r.train_loss for r in a.trace] == [r.train_loss for r in b.trace]


def test_zero_weight_contrastive_matches_plain_variant(small_splits):
    # With lam = 0 the contrastive term contributes nothing to loss or
    # gradients, so the parameter trajectory must match the plain variant.
    train, val, _ = small_splits
    cfg = small_train_config(loss=dataclasses.replace(TrainConfig().loss, lam=0.0))
    plain = run_pipeline(train, val, VariantSpec.from_name("Single-MLL"), cfg)
    vanilla = run_pipeline(train, val, VariantSpec.from_name("MLL-CL"), cfg)
    assert [r.train_loss for r in plain.trace] == [r.train_loss for r in vanilla.trace]
    assert np.array_equal(plain.checkpoint.head.weights, vanilla.checkpoint.head.weights)
    for Wp, Wv in zip(plain.checkpoint.encoder_params.weights,
                      vanilla.checkpoint.encoder_params.weights):
        assert np.array_equal(Wp, Wv)


def test_checkpoint_keeps_first_best_epoch(crc_result):
    vals = [r.val_exact_match for r in crc_result.trace]
    first_best = vals.index(max(vals)) + 1
    assert crc_result.checkpoint.epoch == first_best


@pytest.mark.parametrize("name, seed", [("MLL-GCN-CRC", 1), ("MLL-CL", 2)])
def test_retained_epoch_holds_the_parameters_of_a_run_that_stops_there(name, seed):
    """A run whose best epoch b comes before its last keeps, bit for bit, every
    tensor of the same run stopped after epoch b."""
    data = generate_synthetic(SyntheticConfig(n_samples=400, seed=4))
    train, val, _ = split_by_subject(data, (0.7, 0.15, 0.15), seed=0)
    variant = VariantSpec.from_name(name)
    full = run_pipeline(train, val, variant, TrainConfig(epochs=12, seed=seed)).checkpoint
    assert full.epoch < 12  # else nothing is restored
    stopped = run_pipeline(train, val, variant, TrainConfig(epochs=full.epoch, seed=seed)).checkpoint
    assert stopped.epoch == full.epoch
    kept, expected = trainer._tensor_entries(full), trainer._tensor_entries(stopped)
    assert [n for n, _ in kept] == [n for n, _ in expected]
    for (tensor, a), (_, b) in zip(kept, expected):
        assert np.array_equal(a, b), tensor


def test_pipeline_input_validation(small_splits):
    train, val, _ = small_splits
    variant = VariantSpec.from_name("Single-MLL")
    other = empty_dataset(synthetic_vocabulary(2, 2))
    with pytest.raises(ValueError, match="share one vocabulary"):
        run_pipeline(train, other, variant, small_train_config())
    with pytest.raises(ValueError, match="nonempty"):
        run_pipeline(empty_dataset(train.vocabulary), val, variant, small_train_config())


def test_training_divergence_is_reported(small_splits):
    train, val, _ = small_splits
    cfg = small_train_config(learning_rate=1e12, epochs=50)
    with pytest.raises(TrainingDivergedError) as err:
        with np.errstate(all="ignore"):
            run_pipeline(train, val, VariantSpec.from_name("Single-MLL"), cfg)
    assert err.value.epoch >= 1


@pytest.mark.parametrize("name, learning_rate, batch_size, message", [
    # the first step overflows what the second batch computes
    ("Single-MLL", 1e200, 16, "loss became non-finite at epoch 1, batch 2"),
    # one batch per epoch: its step overflows no parameter, but the
    # validation forward pass overflows, so the epoch's scores hold NaN
    ("Single-MLL", 1e200, 1000, "validation scores became non-finite at epoch 1, batch 1"),
    ("MLL-GCN", 1e200, 1000, "validation scores became non-finite at epoch 1, batch 1"),
    # a smaller overflow: scores of +-inf, with no NaN among them
    ("Single-MLL", 1e150, 1000, "validation scores became non-finite at epoch 1, batch 1"),
    ("MLL-GCN-CRC", 1e150, 1000, "validation scores became non-finite at epoch 1, batch 1"),
])
def test_divergence_names_its_epoch_and_batch(small_splits, name, learning_rate, batch_size, message):
    train, val, _ = small_splits
    cfg = small_train_config(learning_rate=learning_rate, batch_size=batch_size, epochs=1)
    with pytest.raises(TrainingDivergedError, match=f"^{message}$") as err:
        with np.errstate(all="ignore"):
            run_pipeline(train, val, VariantSpec.from_name(name), cfg)
    assert (err.value.epoch, err.value.batch) == (1, int(message[-1]))


def test_score_and_evaluate(crc_result, small_splits):
    _, _, test = small_splits
    table = score_dataset(crc_result.checkpoint, test)
    assert table.scores.shape == (len(test), test.vocabulary.size)
    assert np.all(table.scores >= 0.0) and np.all(table.scores <= 1.0)
    values, _ = compute_report(table, test.vocabulary.sp_indices)
    assert 0.0 <= values["MLL_ACC"] <= 1.0
    assert 0.0 <= values["mAP"] <= 1.0
    with pytest.raises(ValueError, match="does not match"):
        score_dataset(crc_result.checkpoint, empty_dataset(synthetic_vocabulary(2, 2)))
    with pytest.raises(ValueError, match="empty"):
        score_dataset(crc_result.checkpoint, empty_dataset(small_splits[0].vocabulary))


def test_scoring_and_report_hold_a_bounded_working_set():
    """score_dataset plus compute_report at 10 000 x 39 peak below 2.5 float64 score tables.

    The table itself is one; encoding, the sigmoid, the table's checks and
    the per-class AP may add only temporaries of bounded size.
    """
    data = generate_synthetic(SyntheticConfig(n_samples=10000, seed=2))
    train, val, _ = split_by_subject(data, (0.1, 0.05, 0.85), seed=0)
    cfg = TrainConfig(epochs=1, glove=GloveConfig(epochs=16))
    cp = run_pipeline(train, val, VariantSpec.from_name("MLL-GCN"), cfg).checkpoint
    tracemalloc.start()
    try:
        table = score_dataset(cp, data)
        for mode in ("exact", "argmax"):
            compute_report(table, cp.vocabulary.sp_indices, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.scores.shape == (10000, 39)
    assert peak < 2.5 * table.scores.nbytes, f"peak {peak} bytes for a {table.scores.nbytes}-byte table"


WIDE = 1000  # classes of the 1000-class benchmark corpus


def wide_counts(n: int = 450, seed: int = 4) -> np.ndarray:
    """(WIDE, WIDE) int64 co-occurrence counts of n samples with about 1% of the labels set."""
    Y = (np.random.default_rng(seed).random((n, WIDE)) < 0.01).astype(np.int64)
    Y[:, 0] = 1
    return Y.T @ Y


@pytest.mark.parametrize("mode", ("binarized", "conditional"))
def test_gcn_graph_peaks_at_two_and_a_quarter_matrices(mode):
    """B-hat at 1000 classes, as `fit_phase1` builds it, holds no more than 2.25
    float64 (C, C) arrays above the counts: the adjacency, B-hat beside it and
    a boolean mask."""
    X = wide_counts()
    tracemalloc.start()
    try:
        bhat = normalize_adjacency(build_adjacency(X, AdjacencyConfig(mode=mode)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bhat.shape == (WIDE, WIDE)
    assert peak <= 2.25 * WIDE * WIDE * 8, f"peak {peak / (WIDE * WIDE * 8):.2f} (C, C) float64 arrays"


def test_checkpoint_save_writes_the_tensors_without_copying_them(tmp_path):
    """A 1000-class MLL-GCN-CRC checkpoint (8 MB of B-hat alone) saves in under
    1 MiB of allocations, and the file is the bytes `checkpoint_bytes` joins."""
    cfg = TrainConfig()
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((WIDE, cfg.glove.d))
    bhat = normalize_adjacency(build_adjacency(wide_counts(), cfg.adjacency))
    cp = Checkpoint(
        variant=VariantSpec.from_name("MLL-GCN-CRC"),
        config=cfg,
        vocabulary=synthetic_vocabulary(250, 750),
        encoder_params=init_encoder(16, cfg.encoder, seed=1),
        head=GcnHead(GcnHead.draw(WIDE, cfg.glove.d, cfg.encoder.output_dim, seed=2), Z, bhat),
        embeddings=Z,
        correlation=bhat,
        centroids=rng.standard_normal((cfg.n_clusters, cfg.glove.d)),
        epoch=1,
    )
    path = tmp_path / "wide.mllg"
    tracemalloc.start()
    try:
        save_checkpoint(cp, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak} bytes"
    raw = path.read_bytes()
    assert raw == checkpoint_bytes(cp)
    assert checkpoint_bytes(load_checkpoint(path)) == raw


@pytest.fixture(scope="module")
def variant_results(small_splits, crc_result):
    train, val, _ = small_splits
    return {
        name: crc_result if name == "MLL-GCN-CRC"
        else run_pipeline(train, val, VariantSpec.from_name(name), small_train_config())
        for name in VARIANT_NAMES
    }


@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_phase1_record_holds_what_the_variant_trains_against(variant_results, small_splits, name):
    """B-hat only for the GCN head, centroids only for cluster relabeling and
    contrast labels only with a contrastive term, all read-only; run_pipeline
    trains against the same record and its checkpoint holds those arrays."""
    train, _, _ = small_splits
    variant = VariantSpec.from_name(name)
    phase1 = fit_phase1(train, variant, small_train_config())
    assert (phase1.correlation is not None) == variant.use_gcn
    assert (phase1.centroids is not None) == (variant.contrastive_mode == "cluster_relabeled")
    assert (phase1.contrast_labels is not None) == (variant.contrastive_mode != "none")
    for key, arr in vars(phase1).items():
        assert arr is None or not arr.flags.writeable, key
    assert phase1.cooccurrence.dtype == np.int64
    assert phase1.embeddings.shape == (train.vocabulary.size, 8)
    if phase1.contrast_labels is not None:
        assert phase1.contrast_labels.dtype == np.int64 and phase1.contrast_labels.shape == (len(train),)

    result = variant_results[name]
    for key, arr in vars(phase1).items():
        trained = getattr(result.phase1, key)
        assert (arr is None and trained is None) or np.array_equal(arr, trained), key
    cp = result.checkpoint
    assert cp.embeddings is result.phase1.embeddings
    assert cp.correlation is result.phase1.correlation
    assert cp.centroids is result.phase1.centroids


@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_checkpoint_roundtrip_is_bit_exact(variant_results, name, tmp_path):
    cp = variant_results[name].checkpoint
    path = tmp_path / "model.mllg"
    save_checkpoint(cp, path)
    raw = path.read_bytes()
    assert checkpoint_bytes(cp) == raw
    loaded = load_checkpoint(path)
    assert checkpoint_bytes(loaded) == raw
    # each tensor is its own aligned, writable array, not a view of the file's bytes
    for arr in (loaded.embeddings, *loaded.encoder_params.weights, *loaded.head.params):
        assert arr.flags.owndata and arr.flags.aligned and arr.flags.writeable
    assert loaded.variant.name == name
    assert loaded.epoch == cp.epoch
    assert np.array_equal(loaded.embeddings, cp.embeddings)
    assert np.array_equal(loaded.head.forward()[0], cp.head.forward()[0])


def test_checkpoint_save_rejects_tensors_its_header_does_not_describe(crc_result, tmp_path):
    cp = crc_result.checkpoint
    path = tmp_path / "bad.mllg"
    for bad in (
        dataclasses.replace(cp, embeddings=cp.embeddings[:, :4]),
        dataclasses.replace(cp, centroids=None),
        dataclasses.replace(cp, encoder_params=dataclasses.replace(cp.encoder_params, slope=0.7)),
    ):
        with pytest.raises(ValueError, match="do not match its variant, vocabulary and config"):
            checkpoint_bytes(bad)
        with pytest.raises(ValueError, match="do not match its variant, vocabulary and config"):
            save_checkpoint(bad, path)
        assert not path.exists()


def test_checkpoint_rejects_corruption(crc_result, variant_results, tmp_path):
    raw = checkpoint_bytes(crc_result.checkpoint)

    bad_magic = tmp_path / "magic.mllg"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.mllg"
    bad_version.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(CheckpointVersionError) as err:
        load_checkpoint(bad_version)
    assert err.value.found == 2

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    bad_payload = tmp_path / "payload.mllg"
    bad_payload.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(bad_payload)

    # Cutting inside the header is detected by length before the checksum
    # can even be located; cutting later surfaces as a checksum mismatch.
    truncated = tmp_path / "short.mllg"
    truncated.write_bytes(raw[:20])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(truncated)
    (n,) = struct.unpack("<I", raw[8:12])
    truncated.write_bytes(raw[:12 + n + 2])
    with pytest.raises(CheckpointTruncatedError, match="missing checksum footer"):
        load_checkpoint(truncated)
    tail_cut = tmp_path / "tail.mllg"
    tail_cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(tail_cut)

    # A header that passes the checksum can still be malformed, nested too
    # deep for the JSON parser or hold an integer past Python's digit limit.
    header = read_header(raw)
    for name, blob in (("nested", b"[" * 100_000 + b"]" * 100_000),
                       ("long_int", b'{"epoch":1' + b"0" * 5000 + b"}")):
        body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:-4]
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointFormatError, match="unreadable header"):
            load_checkpoint(path)
    no_tensors = {k: v for k, v in header.items() if k != "tensors"}
    wrong_kind = dict(header, classifier_kind="linear")
    for name, bad, match in (
        ("no_tensors", no_tensors, "tensors"),
        ("array", [header], "malformed header"),
        ("no_layers", {k: v for k, v in header.items() if k != "gcn_layers"}, "gcn_layers"),
        ("config_type", dict(header, config=[1, 2]), "expected an object"),
        ("shape_type", dict(header, tensors=[dict(header["tensors"][0], shape="9x8")]),
         "encoder.0.weight"),
        ("kind", wrong_kind, 'classifier_kind: the file has "linear", a save writes "gcn"'),
        ("epochs_type", dict(header, config=dict(header["config"], epochs=1.5)),
         "epochs: expected an integer, got float"),
        ("widths_type", dict(header, config=dict(
            header["config"], encoder=dict(header["config"]["encoder"], layer_widths=[8.0, 16]))),
         "encoder.layer_widths: expected a list of integers"),
        ("nan_config", dict(header, config=dict(
            header["config"], loss=dict(header["config"]["loss"], alpha=float("nan")))),
         "loss.alpha: expected a finite number, got NaN"),
    ):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(with_header(raw, bad))
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)

    # A checksummed file must hold exactly the tensors its variant saves.
    names = [t["name"] for t in header["tensors"]]
    same = tmp_path / "same.mllg"
    same.write_bytes(with_tensors(raw, names))
    assert checkpoint_bytes(load_checkpoint(same)) == raw

    def without(name):
        return [n for n in names if n != name]

    swapped = names[:3] + [names[4], names[3]] + names[5:]
    linear = [n for n in names if not n.startswith("gcn.")] + [("classifier", "gcn.1.weight")]
    for name, data, match in (
        ("no_correlation", with_tensors(raw, without("correlation")), "correlation"),
        ("no_centroids", with_tensors(raw, without("centroids")), "centroids"),
        ("no_gcn_layer", with_tensors(raw, without("gcn.1.weight")), "gcn.1.weight"),
        ("no_encoder_bias", with_tensors(raw, without("encoder.1.bias")), "encoder.1.bias"),
        ("extra", with_tensors(raw, names + [("extra", "centroids")]), r'tensors\[9\]: the file has \{"dtype":"<f8","name":"extra"'),
        ("renamed", with_tensors(raw, [("other" if n == "centroids" else n, n) for n in names]),
         "centroids"),
        ("reordered", with_tensors(raw, swapped), r'tensors\[encoder.0.weight\]\.name: the file has "encoder.0.bias"'),
        ("centroids_in_gcn", with_tensors(raw, names, variant="MLL-GCN"), "centroids"),
        ("graph_in_crc", with_tensors(raw, linear, variant="MLL-CRC", classifier_kind="linear",
                                      gcn_layers=None), "correlation"),
    ):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(data)
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)

    # A checksummed tensor must hold finite values only.
    for name, value in (("embeddings", np.nan), ("correlation", np.nan), ("centroids", np.nan),
                        ("encoder.0.weight", np.inf)):
        path = tmp_path / f"non_finite_{name}.mllg"
        path.write_bytes(with_value(raw, name, value))
        with pytest.raises(CheckpointFormatError, match=f"tensor '{name}' holds non-finite values"):
            load_checkpoint(path)
    finite = tmp_path / "finite.mllg"
    finite.write_bytes(with_value(raw, "embeddings", 0.25))
    assert load_checkpoint(finite).embeddings[0, 0] == 0.25

    # A checksummed payload must hold exactly the bytes its header declares:
    # a byte count that disagrees with the tensor's shape, or bytes after the last tensor.
    (size,) = struct.unpack("<Q", raw[12 + n:20 + n])
    first = header["tensors"][0]
    for name, body, match in (
        ("byte_count", raw[:12 + n] + struct.pack("<Q", size - 8) + raw[20 + n:-4],
         re.escape(f"tensor {first['name']!r}: {size - 8} bytes for shape {first['shape']}")),
        ("trailing", raw[:-4] + bytes(8), "trailing bytes after the tensor payload"),
    ):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)

    # ... and each tensor with the shape training gives it for the header's
    # vocabulary (9 classes) and config (d = 8, 4 clusters, widths 8 and 16).
    config = header["config"]
    one_layer = [header["gcn_layers"][0]]
    for name, data, match in (
        ("correlation_shape", with_shapes(raw, {"correlation": [3, 27]}),
         r"tensors\[correlation\]\.shape: the file has \[3,27\], a save writes \[9,9\]"),
        ("embeddings_shape", with_shapes(raw, {"embeddings": [8, 9]}), r"tensors\[embeddings\]\.shape"),
        ("centroids_shape", with_shapes(raw, {"centroids": [2, 16]}), r"tensors\[centroids\]\.shape"),
        ("gcn_shapes", with_shapes(raw, {"gcn.0.weight": [4, 16], "gcn.1.weight": [16, 8]}),
         r"tensors\[gcn.0.weight\]\.shape: the file has \[4,16\]"),
        ("glove_d", with_header(raw, dict(header, config=dict(config, glove=dict(config["glove"], d=4)))),
         r"tensors\[embeddings\]\.shape: the file has \[9,8\], a save writes \[9,4\]"),
        ("n_clusters", with_header(raw, dict(header, config=dict(config, n_clusters=2))),
         r"tensors\[centroids\]\.shape: the file has \[4,8\], a save writes \[2,8\]"),
        ("encoder_widths", with_header(raw, dict(header, config=dict(
            config, encoder=dict(config["encoder"], layer_widths=[8, 32])))),
         r"tensors\[encoder.1.weight\]\.shape: the file has \[8,16\], a save writes \[8,32\]"),
        ("one_gcn_layer", with_header(raw, dict(header, gcn_layers=one_layer)),
         r"gcn_layers\[1\]: the file has nothing"),
        ("swapped_gcn_layers", with_header(raw, dict(header, gcn_layers=header["gcn_layers"][::-1])),
         r"gcn_layers\[0\]\.activation"),
        ("gcn_slope", with_header(raw, dict(header, gcn_layers=[
            dict(layer, slope=0.3) for layer in header["gcn_layers"]])), r"gcn_layers\[0\]\.slope"),
        ("flat_encoder_weight", with_shapes(raw, {"encoder.0.weight": [128]}),
         r"tensors\[encoder.0.weight\]\.shape: the file has \[128\]"),
    ):
        path = tmp_path / f"{name}.mllg"
        path.write_bytes(data)
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)

    # A header loads only if it is the one a save of its own contents writes.
    for name, bad, match in header_edits(header):
        path = tmp_path / f"edit_{name}.mllg"
        path.write_bytes(with_header(raw, bad))
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)
    linear_raw = checkpoint_bytes(variant_results["MLL-CL"].checkpoint)
    layers, match = LINEAR_GCN_LAYERS
    path = tmp_path / "linear_gcn_layers.mllg"
    path.write_bytes(with_header(linear_raw, dict(read_header(linear_raw), gcn_layers=layers)))
    with pytest.raises(CheckpointFormatError, match=match):
        load_checkpoint(path)


def test_checkpoint_roundtrip_linear_head(small_splits, tmp_path):
    train, val, _ = small_splits
    res = run_pipeline(train, val, VariantSpec.from_name("MLL-CL"), small_train_config())
    path = tmp_path / "linear.mllg"
    save_checkpoint(res.checkpoint, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded.head, LinearHead)
    assert loaded.correlation is None and loaded.centroids is None
    assert np.array_equal(loaded.head.weights, res.checkpoint.head.weights)


SMALL_CONFIG_DICT = {
    "adjacency": {"mode": "binarized", "reweight": 0.2, "threshold": 0.4},
    "batch_size": 16,
    "encoder": {"layer_widths": [8, 16], "slope": 0.2},
    "epochs": 3,
    "glove": {"beta1": 0.9, "beta2": 0.999, "d": 8, "epochs": 30, "eps": 1e-08,
              "init_scale": 0.05, "learning_rate": 0.001},
    "kmeans_max_iter": 100,
    "kmeans_tol": 1e-06,
    "learning_rate": 0.01,
    "loss": {"alpha": 0.75, "beta": 0.25, "contrastive_normalization": "pair_mean", "lam": 0.1},
    "momentum": 0.9,
    "n_clusters": 4,
    "seed": 0,
    "weighting": {"exponent": 0.75, "x_max": 100.0},
}
ENCODER_TENSORS = [
    ("encoder.0.weight", [16, 8]),
    ("encoder.0.bias", [8]),
    ("encoder.1.weight", [8, 16]),
    ("encoder.1.bias", [16]),
]


def test_checkpoint_header_golden(crc_result, small_splits):
    train, val, _ = small_splits
    linear = run_pipeline(train, val, VariantSpec.from_name("MLL-CL"), small_train_config())
    cases = (
        (linear.checkpoint, "linear", None,
         [("embeddings", [9, 8])] + ENCODER_TENSORS + [("classifier", [9, 16])]),
        (crc_result.checkpoint, "gcn",
         [{"activation": "leaky", "slope": 0.2}, {"activation": "identity", "slope": 0.2}],
         [("embeddings", [9, 8]), ("correlation", [9, 9]), ("centroids", [4, 8])]
         + ENCODER_TENSORS + [("gcn.0.weight", [8, 8]), ("gcn.1.weight", [8, 16])]),
    )
    for cp, kind, layers, tensors in cases:
        header = read_header(checkpoint_bytes(cp))
        assert sorted(header) == [
            "classifier_kind", "config", "encoder_slope", "epoch", "gcn_layers",
            "tensors", "variant", "vocabulary",
        ]
        assert header["variant"] == cp.variant.name
        assert header["classifier_kind"] == kind
        assert header["gcn_layers"] == layers
        assert header["config"] == SMALL_CONFIG_DICT
        assert [(t["name"], t["shape"]) for t in header["tensors"]] == tensors
        assert {t["dtype"] for t in header["tensors"]} == {"<f8"}


@pytest.mark.parametrize("target", ["embeddings", "correlation", "propagated"])
def test_phase_one_tensors_are_read_only_in_phase_two(small_splits, monkeypatch, target):
    """Z, the LabelGraph built from B-hat and the B-hat Z the GCN head reads every batch cannot be written."""
    train, val, _ = small_splits
    real_glove = trainer.train_glove
    real_forward = trainer.gcn_forward
    glove = []

    def recording_glove(*args, **kwargs):
        glove.append(real_glove(*args, **kwargs))
        return glove[-1]

    def writing_forward(BZ, graph, stack):
        arrays = {"embeddings": [glove[0].embedding], "correlation": arrays_in(graph), "propagated": [BZ]}
        first, *rest = arrays[target]
        for arr in rest:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] += 1
        first[...] += 1
        return real_forward(BZ, graph, stack)

    monkeypatch.setattr(trainer, "train_glove", recording_glove)
    monkeypatch.setattr(trainer, "gcn_forward", writing_forward)
    with pytest.raises(ValueError, match="read-only"):
        run_pipeline(train, val, VariantSpec.from_name("MLL-GCN"), small_train_config())
