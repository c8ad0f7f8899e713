import math

import numpy as np
import pytest

from mllgraph import diagnostics
from mllgraph.metrics import (
    METRIC_KEYS,
    MetricsReport,
    ScoreTable,
    binarize,
    compute_report,
    exact_match,
    format_report_json,
    hamming_loss,
    mean_average_precision,
    overall_and_perclass,
    read_score_csv,
    sp_argmax_accuracy,
    write_score_csv,
)
from mllgraph.oracle import oracle_average_precision, oracle_metrics


def test_score_table_validation():
    good = ScoreTable(np.array([[0.2, 0.8]]), np.array([[0, 1]]))
    assert good.n == 1 and good.n_classes == 2
    with pytest.raises(ValueError, match="must match"):
        ScoreTable(np.array([[0.2, 0.8]]), np.array([[0, 1, 1]]))
    with pytest.raises(ValueError, match="at least one sample"):
        ScoreTable(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        ScoreTable(np.array([[1.2, 0.0]]), np.array([[0, 1]]))
    with pytest.raises(ValueError, match="0/1"):
        ScoreTable(np.array([[0.2, 0.8]]), np.array([[0, 2]]))
    with pytest.raises(ValueError, match="threshold"):
        ScoreTable(np.array([[0.2, 0.8]]), np.array([[0, 1]]), threshold=1.5)


def test_binarize_is_strict():
    table = ScoreTable(np.array([[0.5, 0.50001, 0.49]]), np.array([[0, 0, 0]]))
    assert binarize(table).tolist() == [[0, 1, 0]]


def test_of1_hand_case():
    # Predictions fire on three cells: tp=2, fp=1, fn=1 -> OF1 = 2/3.
    scores = np.array([[0.9, 0.9], [0.9, 0.1]])
    targets = np.array([[1, 0], [1, 1]])
    op, orec, of1, _, _, _ = overall_and_perclass(ScoreTable(scores, targets))
    assert op == pytest.approx(2.0 / 3.0)
    assert orec == pytest.approx(2.0 / 3.0)
    assert of1 == pytest.approx(2.0 / 3.0)


def test_hamming_loss_hand_case():
    scores = np.array([[0.9, 0.1], [0.9, 0.1]])
    targets = np.array([[1, 1], [0, 0]])
    assert hamming_loss(ScoreTable(scores, targets)) == pytest.approx(0.5)


def test_zero_division_conventions_count():
    # No predicted positives and no true positives at all.
    table = ScoreTable(np.array([[0.1, 0.1]]), np.array([[0, 0]]))
    before = diagnostics.count("overall_precision_zero_division")
    op, orec, of1, cp, cr, cf1 = overall_and_perclass(table)
    assert (op, orec, of1, cp, cr, cf1) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert diagnostics.count("overall_precision_zero_division") == before + 1


def overall_and_perclass_reference(table):
    """Per-class P/R one class at a time, each 0/0 counted as it is met."""
    pred = binarize(table).astype(bool)
    tgt = table.targets.astype(bool)
    tp = (pred & tgt).sum(axis=0).astype(np.float64)
    fp = (pred & ~tgt).sum(axis=0).astype(np.float64)
    fn = (~pred & tgt).sum(axis=0).astype(np.float64)

    def safe_ratio(num, den, event):
        if den == 0:
            diagnostics.record(event)
            return 0.0
        return num / den

    op = safe_ratio(tp.sum(), tp.sum() + fp.sum(), "overall_precision_zero_division")
    orec = safe_ratio(tp.sum(), tp.sum() + fn.sum(), "overall_recall_zero_division")
    of1 = safe_ratio(2.0 * op * orec, op + orec, "overall_f1_zero_division")
    cp = math.fsum([safe_ratio(tp[c], tp[c] + fp[c], "perclass_precision_zero_division")
                    for c in range(len(tp))]) / len(tp)
    cr = math.fsum([safe_ratio(tp[c], tp[c] + fn[c], "perclass_recall_zero_division")
                    for c in range(len(tp))]) / len(tp)
    cf1 = safe_ratio(2.0 * cp * cr, cp + cr, "perclass_f1_zero_division")
    return float(op), float(orec), float(of1), float(cp), float(cr), cf1


def test_overall_and_perclass_matches_loop_reference():
    rng = np.random.default_rng(7)
    tables = []
    for n, C in ((1, 1), (1, 5), (6, 4), (40, 39), (25, 300)):
        for _ in range(3):
            scores = rng.random((n, C))
            targets = rng.integers(0, 2, (n, C))
            cols = rng.permutation(C)[: max(1, C // 4)]
            scores[:, cols[::2]] = 0.1      # nothing predicted: precision 0/0
            targets[:, cols[::3]] = 0       # no positives: recall 0/0 (both where they meet)
            tables.append(ScoreTable(scores, targets))
    tables.append(ScoreTable(np.full((3, 4), 0.2), np.zeros((3, 4))))   # every ratio 0/0
    for table in tables:
        before = diagnostics.snapshot()
        got = overall_and_perclass(table)
        mid = diagnostics.snapshot()
        want = overall_and_perclass_reference(table)
        after = diagnostics.snapshot()
        assert np.array(got).tobytes() == np.array(want).tobytes()
        for key in set(after) | set(before):
            assert mid.get(key, 0) - before.get(key, 0) == after.get(key, 0) - mid.get(key, 0)


def test_perclass_zero_division_records_no_zero_counts():
    diagnostics.reset()
    overall_and_perclass(ScoreTable(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([[1, 0], [0, 1]])))
    assert diagnostics.snapshot() == {}
    overall_and_perclass(ScoreTable(np.array([[0.9, 0.1], [0.1, 0.1]]), np.array([[1, 0], [0, 0]])))
    assert diagnostics.snapshot() == {
        "perclass_precision_zero_division": 1, "perclass_recall_zero_division": 1,
    }


def test_exact_match_and_restrict():
    scores = np.array([[0.9, 0.1, 0.9], [0.9, 0.9, 0.1]])
    targets = np.array([[1, 0, 1], [1, 0, 0]])
    table = ScoreTable(scores, targets)
    assert exact_match(table) == pytest.approx(0.5)
    assert exact_match(table, restrict=[0]) == pytest.approx(1.0)
    assert exact_match(table, restrict=[1, 2]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="at least one class"):
        exact_match(table, restrict=[])


def test_sp_argmax_accuracy():
    scores = np.array(
        [
            [0.9, 0.2, 0.8],   # top plane 0 is a true plane -> correct
            [0.8, 0.3, 0.1],   # top plane 0 but plane 1 is true -> wrong
            [0.7, 0.2, 0.9],   # no true plane, plane preds not all zero -> wrong
            [0.1, 0.2, 0.9],   # no true plane, plane preds all zero -> correct
        ]
    )
    targets = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1], [0, 0, 1]])
    table = ScoreTable(scores, targets)
    acc = sp_argmax_accuracy(table, sp_indices=[0, 1])
    assert acc == pytest.approx(0.5)
    with pytest.raises(ValueError, match="at least one class"):
        sp_argmax_accuracy(table, sp_indices=[])


def loop_sp_argmax_accuracy(table, sp_indices):
    """Reference: the per-sample loop sp_argmax_accuracy replaced."""
    idx = np.asarray(sp_indices, dtype=np.int64)
    scores = table.scores[:, idx]
    targets = table.targets[:, idx]
    preds = binarize(table)[:, idx]
    correct = 0
    for i in range(table.n):
        if targets[i].sum() == 0:
            correct += int(preds[i].sum() == 0)
        else:
            correct += int(targets[i, int(np.argmax(scores[i]))] == 1)
    return correct / table.n


def test_sp_argmax_accuracy_matches_loop_reference():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n, C = int(rng.integers(1, 30)), int(rng.integers(2, 8))
        # a coarse score grid makes tied top scores common
        scores = rng.integers(0, 5, (n, C)) / 4.0
        targets = (rng.random((n, C)) < 0.3).astype(np.uint8)
        targets[: n // 3, :] = 0  # samples with no plane at all
        table = ScoreTable(scores, targets, threshold=float(rng.choice([0.0, 0.5, 1.0])))
        sp = np.sort(rng.choice(C, size=int(rng.integers(1, C + 1)), replace=False))
        assert sp_argmax_accuracy(table, sp) == loop_sp_argmax_accuracy(table, sp)
        assert oracle_metrics(scores, targets, table.threshold, sp, "argmax")["SP_ACC"] == loop_sp_argmax_accuracy(table, sp)
    # tied top scores: the lowest tied index decides
    table = ScoreTable(np.array([[0.7, 0.7], [0.7, 0.7]]), np.array([[0, 1], [1, 0]]))
    assert sp_argmax_accuracy(table, [0, 1]) == loop_sp_argmax_accuracy(table, [0, 1]) == 0.5
    assert oracle_metrics(table.scores, table.targets, 0.5, [0, 1], "argmax")["SP_ACC"] == 0.5
    with pytest.raises(ValueError, match="sp_mode"):
        oracle_metrics(table.scores, table.targets, 0.5, [0, 1], "top1")
    for mode in ("exact", "argmax"):  # both raise, as compute_report does
        with pytest.raises(ValueError, match="at least one class"):
            oracle_metrics(table.scores, table.targets, 0.5, [], mode)


def average_precision(scores, targets):
    """One class's AP as mean_average_precision scores it."""
    return mean_average_precision(ScoreTable(scores[:, None], targets[:, None]))[1][0]


def test_average_precision_hand_cases():
    # Positives at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6.
    ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
    assert ap == pytest.approx(5.0 / 6.0)
    # Tie broken by ascending index: the negative at index 0 ranks first.
    ap_tie = average_precision(np.array([0.5, 0.5]), np.array([0, 1]))
    assert ap_tie == pytest.approx(0.5)
    # a class without positives has no AP
    assert np.isnan(average_precision(np.array([0.5, 0.5]), np.array([0, 0])))


def test_mean_average_precision_skips_empty_classes():
    scores = np.array([[0.9, 0.4], [0.1, 0.6]])
    targets = np.array([[1, 0], [0, 0]])
    before_skip = diagnostics.count("map_class_without_positives")
    mp, per_class = mean_average_precision(ScoreTable(scores, targets))
    assert mp == pytest.approx(1.0)
    assert per_class[0] == pytest.approx(1.0)
    assert np.isnan(per_class[1])
    assert diagnostics.count("map_class_without_positives") == before_skip + 1


def test_mean_average_precision_all_classes_empty():
    table = ScoreTable(np.array([[0.9, 0.4]]), np.array([[0, 0]]))
    before = diagnostics.count("map_no_scorable_classes")
    mp, per_class = mean_average_precision(table)
    assert mp == 0.0
    assert np.all(np.isnan(per_class))
    assert diagnostics.count("map_no_scorable_classes") == before + 1


def average_precision_reference(scores, targets):
    """Reference: one column's AP with its own sort, as each class was scored before."""
    order = np.argsort(-scores, kind="stable")
    hits = targets[order].astype(np.float64)
    ranks = np.flatnonzero(hits) + 1
    return float((np.cumsum(hits)[ranks - 1] / ranks).mean())


def loop_mean_average_precision(table):
    """Reference: the per-class loop mean_average_precision replaced."""
    per_class = np.full(table.n_classes, np.nan)
    vals = []
    for c in range(table.n_classes):
        if int(table.targets[:, c].sum()) == 0:
            diagnostics.record("map_class_without_positives")
            continue
        per_class[c] = average_precision_reference(table.scores[:, c], table.targets[:, c])
        vals.append(per_class[c])
    if not vals:
        diagnostics.record("map_no_scorable_classes")
        return 0.0, per_class
    return float(np.mean(vals)), per_class


def test_mean_average_precision_matches_loop_reference():
    rng = np.random.default_rng(8)
    tables = []
    for n, C in ((1, 1), (2, 3), (7, 5), (40, 9), (300, 39), (1000, 4)):
        scores = rng.random((n, C))
        scores[:, ::2] = np.round(scores[:, ::2], 1)   # many ties
        targets = (rng.random((n, C)) < rng.uniform(0.02, 0.9)).astype(np.uint8)
        targets[:, 0] = 0                                 # a class without positives
        tables.append(ScoreTable(scores, targets))
    tables.append(ScoreTable(np.full((6, 3), 0.5), np.eye(6, 3, dtype=np.uint8)))   # all tied
    tables.append(ScoreTable(np.random.default_rng(1).random((5, 2)), np.zeros((5, 2))))  # none scorable
    tables.append(ScoreTable(np.zeros((4, 2)), np.ones((4, 2))))   # all positive, all tied
    for table in tables:
        before = diagnostics.snapshot()
        mp, per_class = mean_average_precision(table)
        mid = diagnostics.snapshot()
        ref_mp, ref_per_class = loop_mean_average_precision(table)
        after = diagnostics.snapshot()
        assert np.float64(mp).tobytes() == np.float64(ref_mp).tobytes()
        assert per_class.tobytes() == ref_per_class.tobytes()
        for key in set(after) | set(before):
            assert mid.get(key, 0) - before.get(key, 0) == after.get(key, 0) - mid.get(key, 0)
        for c in np.flatnonzero(table.targets.any(axis=0)):
            assert average_precision(table.scores[:, c], table.targets[:, c]) == per_class[c]


def test_report_keys_and_formatting():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    targets = np.array([[1, 0], [0, 1]])
    report = compute_report(ScoreTable(scores, targets), sp_indices=[0])
    d = report.as_dict()
    assert tuple(d.keys()) == METRIC_KEYS
    assert d["MLL_ACC"] == pytest.approx(1.0)
    text = format_report_json(report)
    assert text.endswith("\n")
    assert '"MLL_ACC": 100.0' in text


def test_compute_report_sp_modes():
    scores = np.array([[0.9, 0.4, 0.8]])
    targets = np.array([[1, 0, 1]])
    table = ScoreTable(scores, targets)
    exact = compute_report(table, sp_indices=[0, 1], sp_mode="exact")
    argmax = compute_report(table, sp_indices=[0, 1], sp_mode="argmax")
    assert exact.sp_acc == pytest.approx(1.0)
    assert argmax.sp_acc == pytest.approx(1.0)
    with pytest.raises(ValueError, match="sp_mode"):
        compute_report(table, sp_indices=[0], sp_mode="top1")


def test_matches_bare_loop_oracle_on_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        C = int(rng.integers(2, 7))
        scores = rng.random((n, C))
        targets = rng.integers(0, 2, (n, C))
        table = ScoreTable(scores, targets)
        got = compute_report(table, sp_indices=list(range(C))).as_dict()
        want = oracle_metrics(scores, targets)
        for key in METRIC_KEYS:
            assert got[key] == pytest.approx(want[key], abs=1e-12), key


def test_oracle_average_precision_agrees():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        scores = rng.random(n)
        targets = rng.integers(0, 2, n)
        if targets.sum() == 0:
            targets[0] = 1
        assert average_precision(scores, targets) == pytest.approx(
            oracle_average_precision(scores, targets), abs=1e-12
        )


def test_score_csv_roundtrip(tmp_path):
    scores = np.array([[0.25, 0.75], [1.0, 0.0]])
    targets = np.array([[0, 1], [1, 0]])
    table = ScoreTable(scores, targets)
    path = tmp_path / "scores.csv"
    write_score_csv(path, table, ids=["a", "b"], names=["SLAP", "CF"])
    ids, names, back = read_score_csv(path)
    assert ids == ["a", "b"]
    assert names == ["SLAP", "CF"]
    assert np.array_equal(back.scores, table.scores)
    assert np.array_equal(back.targets, table.targets)
    with pytest.raises(ValueError, match="do not match"):
        write_score_csv(path, table, ids=["a"], names=["SLAP", "CF"])


def test_read_score_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,a,b\nrow,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="target columns"):
        read_score_csv(path)
