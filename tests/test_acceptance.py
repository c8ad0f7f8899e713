"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL summary line (run with -s or -rA to see them).

Covered, with tolerances stated inline: analytic gradients against central
finite differences; the vectorized metrics against a bare-loop oracle;
planted co-occurrence semantics of the label embeddings; k-means
convergence and optimality on separable data; the benchmark ordering of
the three headline variants; byte-level determinism of the CLI and the
checkpoint codec; and scale invariance of the contrastive term.
"""

import json
import time

import numpy as np
import pytest

from mllgraph.cli import main
from mllgraph.cooccur import WeightingConfig
from mllgraph.corpus import SyntheticConfig, generate_synthetic, split_by_subject
from mllgraph.glove import (
    EmbeddingParams,
    GloveConfig,
    _augmented,
    _fixed_terms,
    _loss_and_grad,
    _loss_and_residual_grad,
    train_glove,
)
from mllgraph.layers import (
    EncoderConfig,
    LabelGraph,
    LayerStack,
    encode,
    encoder_gradients,
    gcn_forward,
    gcn_gradients,
    init_encoder,
    init_stack,
    propagate,
)
from mllgraph.losses import LossConfig, contrastive_loss_and_grad, epoch_pair_terms, mll_loss_and_grad
from mllgraph.metrics import METRIC_KEYS, ScoreTable, compute_report
from mllgraph.oracle import oracle_metrics
from mllgraph.relabel import kmeans
from mllgraph.seeding import stage_seed
from mllgraph.trainer import (
    TrainConfig,
    VariantSpec,
    checkpoint_bytes,
    load_checkpoint,
    run_pipeline,
    score_dataset,
)

from gradcheck import (
    away_from_kinks,
    encoder_hidden_preacts,
    gcn_hidden_preacts,
    max_rel_err,
    numeric_gradient,
)
from label_graphs import reweight_one_graph, sparse_label_graph


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")


# --------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences,
# relative error <= 1e-4 on >= 20 random small instances per path
# --------------------------------------------------------------------------


def _embedding_gradcheck(rng) -> float:
    # C > 64, so the fit's row blocks of R and E meet at a boundary
    C = int(rng.integers(65, 73))
    d = int(rng.integers(2, 6))
    counts = rng.integers(0, 6, (C, C))
    counts = counts + counts.T
    np.fill_diagonal(counts, counts.diagonal() + rng.integers(1, 4, C))
    wcfg = WeightingConfig()
    _, A, Bt, params = _augmented(C, d)
    for block in ("w", "w_ctx", "b", "b_ctx"):
        view = getattr(params, block)
        view[...] = rng.standard_normal(view.shape) * 0.3
    # the evaluation train_glove runs each epoch, against the masked loss
    terms = (counts, *_fixed_terms(counts, wcfg))
    _, dA, dBt, grads = _augmented(C, d)
    _loss_and_grad(A, Bt, *terms, dA, dBt)
    worst = 0.0
    for block in ("w", "w_ctx", "b", "b_ctx"):
        def f(value, _block=block):
            fields = {k: getattr(params, k) for k in ("w", "w_ctx", "b", "b_ctx")}
            fields[_block] = value
            return _loss_and_residual_grad(EmbeddingParams(**fields), *terms)[0]

        numeric = numeric_gradient(f, getattr(params, block))
        worst = max(worst, max_rel_err(getattr(grads, block), numeric))
    return worst


def _graph_path_gradcheck(rng, B=None) -> float:
    """Worst relative error of the GCN path's gradients, over a random small dense B or the given one."""
    C = int(rng.integers(2, 9)) if B is None else len(B)
    d = int(rng.integers(2, 6))
    D = int(rng.integers(2, 7))
    n = int(rng.integers(2, 9))
    if B is None:
        B = rng.random((C, C)) / C + np.eye(C)
    graph = LabelGraph(B)
    reps = rng.standard_normal((n, D))
    targets = rng.integers(0, 2, (n, C)).astype(float)
    while True:
        Z = rng.standard_normal((C, d))
        stack = init_stack((d, d, D), seed=int(rng.integers(100_000)))
        _, cache = gcn_forward(propagate(Z, graph), graph, stack)
        if away_from_kinks(gcn_hidden_preacts(cache, stack)):
            break

    def path_loss(Zv, stack_v):
        K, _ = gcn_forward(propagate(Zv, graph), graph, stack_v)
        return mll_loss_and_grad(reps @ K.T, targets)[0]

    K, cache = gcn_forward(propagate(Z, graph), graph, stack)
    _, d_scores = mll_loss_and_grad(reps @ K.T, targets)
    dK = d_scores.T @ reps
    dWs, dH0 = gcn_gradients(dK, cache, graph, stack)
    dZ = graph.T @ (dH0 @ stack.weights[0].T)   # d(B Z) = dH0 W0^T

    worst = max_rel_err(dZ, numeric_gradient(lambda Zv: path_loss(Zv, stack), Z))
    for li in range(2):
        def f(W, _li=li):
            weights = [W if i == _li else w for i, w in enumerate(stack.weights)]
            return path_loss(Z, LayerStack(weights, slope=stack.slope))

        worst = max(worst, max_rel_err(dWs[li], numeric_gradient(f, stack.weights[li])))
    return worst


def _encoder_path_gradcheck(rng) -> float:
    D_in = int(rng.integers(2, 7))
    C = int(rng.integers(2, 9))
    n = int(rng.integers(2, 9))
    widths = (int(rng.integers(2, 5)), int(rng.integers(2, 7)))
    K = rng.standard_normal((C, widths[-1]))
    targets = rng.integers(0, 2, (n, C)).astype(float)
    while True:
        X = rng.standard_normal((n, D_in))
        params = init_encoder(D_in, EncoderConfig(layer_widths=widths), seed=int(rng.integers(100_000)))
        _, cache = encode(X, params)
        if away_from_kinks(encoder_hidden_preacts(cache, params)):
            break

    def path_loss(params_, Xv):
        reps, _ = encode(Xv, params_)
        return mll_loss_and_grad(reps @ K.T, targets)[0]

    reps, cache = encode(X, params)
    _, d_scores = mll_loss_and_grad(reps @ K.T, targets)
    dWs, dbs, dz0 = encoder_gradients(d_scores @ K, cache, params)
    dX = dz0 @ params.weights[0].T

    worst = max_rel_err(dX, numeric_gradient(lambda Xv: path_loss(params, Xv), X))
    for li in range(2):
        def f_w(W, _li=li):
            ws = [W if i == _li else w for i, w in enumerate(params.weights)]
            return path_loss(type(params)(ws, params.biases, params.slope), X)

        def f_b(b, _li=li):
            bs = [b if i == _li else x for i, x in enumerate(params.biases)]
            return path_loss(type(params)(params.weights, bs, params.slope), X)

        worst = max(worst, max_rel_err(dWs[li], numeric_gradient(f_w, params.weights[li])))
        worst = max(worst, max_rel_err(dbs[li], numeric_gradient(f_b, params.biases[li])))
    return worst


def _contrastive_gradcheck(rng, norm: str) -> float:
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 6))
    cfg = LossConfig(contrastive_normalization=norm)
    X = rng.standard_normal((n, d))
    labels = rng.integers(0, max(2, n // 2), n)
    (terms,) = epoch_pair_terms(labels, n, cfg)
    _, grad = contrastive_loss_and_grad(X, terms)
    numeric = numeric_gradient(lambda Xv: contrastive_loss_and_grad(Xv, terms)[0], X)
    return max_rel_err(grad, numeric)


def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = {
        "embedding": max(_embedding_gradcheck(rng) for _ in range(20)),
        "graph-path": max(_graph_path_gradcheck(rng) for _ in range(20)),
        "encoder": max(_encoder_path_gradcheck(rng) for _ in range(20)),
        "contrastive": max(
            _contrastive_gradcheck(rng, ("pair_mean", "raw_sum")[i % 2]) for i in range(20)
        ),
    }
    elapsed = time.time() - start
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{k} max rel err {v:.2e}" for k, v in worst.items())
    _report(1, "gradient correctness", ok, f"{detail}; {elapsed:.1f}s")
    assert ok, worst


@pytest.mark.parametrize("make", [sparse_label_graph, reweight_one_graph])
def test_criterion_1_graph_path_gradients_on_the_gather_path(make):
    """Criterion 1's graph-path check over a graph whose rows LabelGraph mostly gathers."""
    B = make()
    graph = LabelGraph(B)
    assert graph.rows.position is not None and graph.T.position is not None
    rng = np.random.default_rng(12)
    worst = max(_graph_path_gradcheck(rng, B) for _ in range(3))
    _report(1, "gradient correctness", worst <= 1e-4, f"graph-path over {len(B)} classes, gather path, "
            f"max rel err {worst:.2e}")
    assert worst <= 1e-4


# --------------------------------------------------------------------------
# criterion 2: vectorized metrics match a bare-loop oracle within 1e-9 on
# 100 random tables, and reproduce three hand-checkable values
# --------------------------------------------------------------------------


def test_criterion_2_metric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33))
        C = int(rng.integers(2, 9))
        threshold = float(rng.choice([0.3, 0.5, 0.7]))
        scores = rng.random((n, C))
        targets = rng.integers(0, 2, (n, C))
        n_sp = int(rng.integers(1, C + 1))
        sp_indices = list(range(n_sp))
        table = ScoreTable(scores, targets, threshold)
        got, _ = compute_report(table, sp_indices)
        want = oracle_metrics(scores, targets, threshold, sp_indices)
        worst = max(worst, max(abs(got[k] - want[k]) for k in METRIC_KEYS))

    # hand-checkable values: micro-F1 2/3, Hamming loss 1/2, AP 5/6
    of1 = compute_report(
        ScoreTable(np.array([[0.9, 0.9], [0.9, 0.1]]), np.array([[1, 0], [1, 1]])), [0]
    )[0]["OF1"]
    hl = compute_report(
        ScoreTable(np.array([[0.9, 0.1], [0.9, 0.1]]), np.array([[1, 1], [0, 0]])), [0]
    )[0]["HL"]
    ap = compute_report(
        ScoreTable(np.array([[0.9], [0.8], [0.7]]), np.array([[1], [0], [1]])), [0]
    )[0]["mAP"]
    hand_ok = (
        of1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        and hl == pytest.approx(0.5, abs=1e-12)
        and ap == pytest.approx(5.0 / 6.0, abs=1e-12)
    )
    elapsed = time.time() - start
    ok = worst <= 1e-9 and hand_ok and elapsed < 10.0
    _report(
        2,
        "metric oracle equivalence",
        ok,
        f"100 tables, max |diff| {worst:.2e}; hand values "
        f"OF1={of1:.6f} HL={hl:.6f} AP={ap:.6f}; {elapsed:.1f}s",
    )
    assert ok


# --------------------------------------------------------------------------
# criterion 3: embeddings trained on a corpus with one always-co-occurring
# and one never-co-occurring class pair must fit the counts (final loss
# <= 10% of initial) and order the pair similarities accordingly, on at
# least 4 of 5 seeds
# --------------------------------------------------------------------------


def _planted_counts(seed: int) -> np.ndarray:
    """200 draws over 12 classes: classes 0 and 1 always appear together,
    classes 2 and 3 never do, the rest are independent filler."""
    rng = np.random.default_rng(seed)
    n, C = 200, 12
    Y = np.zeros((n, C), dtype=np.int64)
    for i in range(n):
        if rng.random() < 0.5:
            Y[i, 0] = Y[i, 1] = 1
        r = rng.random()
        if r < 0.25:
            Y[i, 2] = 1
        elif r < 0.5:
            Y[i, 3] = 1
        for k in range(4, C):
            if rng.random() < 0.25:
                Y[i, k] = 1
        if Y[i].sum() == 0:
            Y[i, int(rng.integers(4, C))] = 1
    return Y.T @ Y


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_criterion_3_embedding_semantics():
    start = time.time()
    passes = 0
    details = []
    for seed in range(5):
        counts = _planted_counts(seed)
        assert counts[0, 1] > 0 and counts[2, 3] == 0
        res = train_glove(
            counts,
            GloveConfig(d=8, epochs=256, learning_rate=0.05),
            WeightingConfig(),
            seed=seed,
        )
        Z = res.embedding
        ratio = float(res.loss_trace[-1] / res.loss_trace[0])
        co = _cosine(Z[0], Z[1])
        apart = _cosine(Z[2], Z[3])
        passes += int(ratio <= 0.10 and co > apart)
        details.append(f"s{seed}: ratio={ratio:.4f} cos+={co:+.2f} cos-={apart:+.2f}")
    elapsed = time.time() - start
    ok = passes >= 4 and elapsed < 60.0
    _report(3, "embedding semantics", ok, f"{passes}/5 seeds ({'; '.join(details)}); {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# criterion 4: the k-means objective never increases across iterations, and
# on two clean blobs the final objective matches the best of 20 bare-loop
# restarts within 1e-9
# --------------------------------------------------------------------------


def _reference_best_inertia(points: np.ndarray, n_clusters: int, restarts: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        centroids = points[rng.choice(points.shape[0], n_clusters, replace=False)].copy()
        for _ in range(200):
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
            assign = d2.argmin(axis=1)
            new = centroids.copy()
            for k in range(n_clusters):
                members = points[assign == k]
                if members.shape[0]:
                    new[k] = members.mean(axis=0)
            if np.array_equal(new, centroids):
                break
            centroids = new
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        best = min(best, float(d2.min(axis=1).sum()))
    return best


def test_criterion_4_kmeans_convergence():
    start = time.time()
    rng = np.random.default_rng(44)
    monotone = True
    for seed in range(10):
        pts = rng.standard_normal((50, 4))
        res = kmeans(pts, 6, seed=seed)
        monotone = monotone and bool(np.all(np.diff(res.objective_trace) <= 1e-12))

    blob_a = np.random.default_rng(7).normal(0.0, 0.3, (25, 2))
    blob_b = np.random.default_rng(8).normal(6.0, 0.3, (25, 2))
    pts = np.vstack([blob_a, blob_b])
    res = kmeans(pts, 2, seed=0)
    best = _reference_best_inertia(pts, 2, restarts=20, seed=123)
    blob_diff = abs(res.inertia - best)
    elapsed = time.time() - start
    ok = monotone and blob_diff <= 1e-9 and elapsed < 5.0
    _report(
        4,
        "k-means convergence",
        ok,
        f"trace monotone over 10 clouds: {monotone}; two-blob |inertia - best-of-20| "
        f"= {blob_diff:.2e}; {elapsed:.1f}s",
    )
    assert ok


# --------------------------------------------------------------------------
# criterion 5: on the default synthetic benchmark (2000 samples, 10 planes +
# 29 structures, ~45/27/28 subject split, d = D = 32, 100 epochs), averaged
# over root seeds 0-2, the full variant's exact-match must exceed the plain
# single-head baseline by >= 2 percentage points, and the graph-only variant
# must match or beat that baseline on the mean (over seeds 0-11 it wins by
# +1.99 pp in 11 of 12). CRC >= GCN, whose margin falls inside the seed
# noise, is printed only.
# --------------------------------------------------------------------------


def test_criterion_5_benchmark_ordering():
    start = time.time()
    variants = ("Single-MLL", "MLL-GCN", "MLL-GCN-CRC")
    accs = {v: [] for v in variants}
    for seed in (0, 1, 2):
        data = generate_synthetic(SyntheticConfig(seed=stage_seed(seed, "synthetic")))
        train, val, test = split_by_subject(data, (0.45, 0.27, 0.28), stage_seed(seed, "split"))
        for v in variants:
            res = run_pipeline(train, val, VariantSpec.from_name(v), TrainConfig(seed=seed))
            table = score_dataset(res.checkpoint, test)
            accs[v].append(compute_report(table, test.vocabulary.sp_indices)[0]["MLL_ACC"] * 100.0)
    means = {v: float(np.mean(accs[v])) for v in variants}
    gap = means["MLL-GCN-CRC"] - means["Single-MLL"]
    graph_helps = means["MLL-GCN"] >= means["Single-MLL"]
    crc_helps = means["MLL-GCN-CRC"] >= means["MLL-GCN"]
    elapsed = time.time() - start
    ok = gap >= 2.0 and graph_helps and elapsed < 1800.0
    _report(
        5,
        "benchmark ordering",
        ok,
        f"mean MLL_ACC: " + " ".join(f"{v}={means[v]:.2f}" for v in variants)
        + f"; endpoint gap {gap:+.2f}pp (needs >= 2.00); MLL-GCN >= Single-MLL: {graph_helps} "
        f"(needed); MLL-GCN-CRC >= MLL-GCN: {crc_helps} (not checked); {elapsed:.0f}s",
    )
    assert ok, means


# --------------------------------------------------------------------------
# criterion 6: rerunning the CLI with one seed reproduces every artifact
# byte for byte, and a checkpoint re-serializes to the exact file bytes
# --------------------------------------------------------------------------

_SMALL_SETS = [
    "--set", "synthetic.n_samples=120",
    "--set", "synthetic.sp_count=3",
    "--set", "synthetic.as_count=6",
    "--set", "synthetic.feature_dim=16",
    "--set", "synthetic.noise_sigma=1.0",
    "--set", "synthetic.samples_per_subject=5",
    "--set", "glove.d=8",
    "--set", "glove.epochs=40",
    "--set", "train.epochs=4",
    "--set", "train.batch_size=16",
    "--set", "encoder.layer_widths=[8,16]",
    "--set", "kmeans.n_clusters=4",
]


def test_criterion_6_determinism(tmp_path):
    start = time.time()
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["train", "--out", str(run_a), *_SMALL_SETS]) == 0
    assert main(["train", "--out", str(run_b), *_SMALL_SETS]) == 0

    artifacts = sorted(p.name for p in run_a.iterdir())
    mismatched = []
    for name in artifacts:
        if name == "config.json":
            # the snapshot embeds the output path itself; everything else
            # in it must match
            ca = json.loads((run_a / name).read_text(encoding="utf-8"))
            cb = json.loads((run_b / name).read_text(encoding="utf-8"))
            ca.pop("out_dir")
            cb.pop("out_dir")
            if ca != cb:
                mismatched.append(name)
        elif (run_a / name).read_bytes() != (run_b / name).read_bytes():
            mismatched.append(name)

    raw = (run_a / "checkpoint.mllg").read_bytes()
    roundtrip_exact = checkpoint_bytes(load_checkpoint(run_a / "checkpoint.mllg")) == raw

    elapsed = time.time() - start
    ok = not mismatched and roundtrip_exact
    _report(
        6,
        "determinism",
        ok,
        f"{len(artifacts)} artifacts byte-identical across reruns"
        + (f" except {mismatched}" if mismatched else "")
        + f"; checkpoint round-trip bit-exact: {roundtrip_exact}; {elapsed:.1f}s",
    )
    assert ok, mismatched


# --------------------------------------------------------------------------
# criterion 7: the contrastive term sees only row directions, so scaling a
# batch by 0.5 or 3.0 moves the loss by at most 1e-10
# --------------------------------------------------------------------------


def test_criterion_7_contrastive_scale_invariance():
    start = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for norm in ("pair_mean", "raw_sum"):
        cfg = LossConfig(contrastive_normalization=norm)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            X = rng.standard_normal((n, d)) * float(rng.uniform(0.1, 10.0))
            (terms,) = epoch_pair_terms(rng.integers(0, 3, n), n, cfg)
            base = contrastive_loss_and_grad(X, terms)[0]
            for c in (0.5, 3.0):
                worst = max(worst, abs(contrastive_loss_and_grad(c * X, terms)[0] - base))
    elapsed = time.time() - start
    ok = worst <= 1e-10
    _report(
        7,
        "contrastive scale invariance",
        ok,
        f"max |loss(cX) - loss(X)| = {worst:.2e} over 40 batches, c in {{0.5, 3.0}}; "
        f"{elapsed:.1f}s",
    )
    assert ok
