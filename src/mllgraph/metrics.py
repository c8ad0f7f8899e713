"""Multi-label evaluation: micro/macro P/R/F1, Hamming loss, exact match, mAP."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .corpus import format_csv_row

METRIC_KEYS = ("SP_ACC", "MLL_ACC", "mAP", "HL", "OP", "OR", "OF1", "CP", "CR", "CF1")
SP_MODES = ("exact", "argmax")  # SP_ACC by exact match on the plane bits, or by the top plane


@dataclass(frozen=True)
class ScoreTable:
    """Per-sample class scores in [0, 1] with 0/1 targets and a decision threshold."""

    scores: np.ndarray
    targets: np.ndarray
    threshold: float = 0.5

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        y = np.asarray(self.targets)
        if s.ndim != 2 or s.shape != y.shape:
            raise ValueError(f"scores {s.shape} and targets {y.shape} must match as (n, C)")
        if s.shape[0] < 1:
            raise ValueError("score table must hold at least one sample")
        # reductions, so no (n, C) temporaries: NaN fails both comparisons,
        # and the initial values let a table without columns pass as before
        if not (s.min(initial=0.0) >= 0 and s.max(initial=1.0) <= 1):
            raise ValueError("scores must lie within [0, 1]")
        if y.dtype != np.uint8 and np.all((y == 0) | (y == 1)):
            y = y.astype(np.uint8)
        if y.dtype != np.uint8 or y.max(initial=0) > 1:
            raise ValueError("targets must be 0/1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie within [0, 1]")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


def binarize(table: ScoreTable) -> np.ndarray:
    """Strict threshold: a score equal to the threshold predicts negative."""
    return (table.scores > table.threshold).astype(np.uint8)


def _safe_ratio(num: float, den: float, event: str) -> float:
    if den == 0:
        diagnostics.record(event)
        return 0.0
    return num / den


def _safe_ratios(num: np.ndarray, den: np.ndarray, event: str) -> np.ndarray:
    """num / den per element, 0 where den is 0; each such element is counted."""
    zero = den == 0
    n_zero = int(np.count_nonzero(zero))
    if n_zero:
        diagnostics.record(event, n_zero)
    return np.divide(num, den, out=np.zeros_like(num), where=~zero)


def overall_and_perclass(table: ScoreTable):
    """(OP, OR, OF1, CP, CR, CF1); every 0/0 is defined as 0 and counted."""
    pred = binarize(table).astype(bool)
    tgt = table.targets.astype(bool)
    tp = (pred & tgt).sum(axis=0).astype(np.float64)
    fp = (pred & ~tgt).sum(axis=0).astype(np.float64)
    fn = (~pred & tgt).sum(axis=0).astype(np.float64)
    op = _safe_ratio(tp.sum(), tp.sum() + fp.sum(), "overall_precision_zero_division")
    orec = _safe_ratio(tp.sum(), tp.sum() + fn.sum(), "overall_recall_zero_division")
    of1 = _safe_ratio(2.0 * op * orec, op + orec, "overall_f1_zero_division")
    # exactly rounded means, as the oracle takes them, so a round-half tie rounds alike in both
    cp = math.fsum(_safe_ratios(tp, tp + fp, "perclass_precision_zero_division").tolist()) / tp.size
    cr = math.fsum(_safe_ratios(tp, tp + fn, "perclass_recall_zero_division").tolist()) / tp.size
    cf1 = _safe_ratio(2.0 * cp * cr, cp + cr, "perclass_f1_zero_division")
    return float(op), float(orec), float(of1), float(cp), float(cr), cf1


def hamming_loss(table: ScoreTable) -> float:
    pred = binarize(table)
    return float(np.mean(pred != table.targets))


def exact_match(table: ScoreTable, restrict=None) -> float:
    """Fraction of samples whose binarized prediction matches every target bit.

    restrict limits the comparison to the given class indices (used for the
    plane-only accuracy); it must be nonempty when provided.
    """
    pred = binarize(table)
    tgt = table.targets
    if restrict is not None:
        idx = np.asarray(restrict, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("restrict must name at least one class")
        pred = pred[:, idx]
        tgt = tgt[:, idx]
    return float(np.mean(np.all(pred == tgt, axis=1)))


def sp_argmax_accuracy(table: ScoreTable, sp_indices) -> float:
    """Alternative plane accuracy: top-scoring plane must be a true plane bit.

    Samples without any positive plane bit count as correct only when the
    binarized plane predictions are all zero.
    """
    idx = np.asarray(sp_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("sp_indices must name at least one class")
    targets = table.targets[:, idx]
    top = np.argmax(table.scores[:, idx], axis=1)  # ties resolve to the lowest index
    hit = targets[np.arange(table.n), top] == 1
    no_plane_predicted = ~binarize(table)[:, idx].any(axis=1)
    correct = np.where(targets.any(axis=1), hit, no_plane_predicted)
    return int(correct.sum()) / table.n


_AP_BLOCK = 1 << 16  # cells per column block of _column_aps


def _column_aps(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """AP of each column of (n, C) scores against 0/1 targets; NaN for a column without positives.

    Blocks of whole columns, about _AP_BLOCK cells each, are ranked by one
    stable sort (descending score, ties by ascending index), so the
    temporaries stay that size. Each column's precisions at its positive
    ranks are averaged with one `mean` over a contiguous slice, the
    reduction a column-by-column loop made, so the bits are the same.
    """
    n, C = scores.shape
    width = max(1, _AP_BLOCK // n)
    aps = np.full(C, np.nan)
    for start in range(0, C, width):
        cols = slice(start, start + width)
        order = np.argsort(-scores[:, cols], axis=0, kind="stable")
        hits = np.take_along_axis(targets[:, cols], order, axis=0)
        del order
        cls, rank0 = np.nonzero(hits.T)  # column after column, ranks ascending
        precision = np.cumsum(hits, axis=0, dtype=np.float64)[rank0, cls] / (rank0 + 1)
        counts = np.bincount(cls, minlength=hits.shape[1])
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts).tolist():
            aps[start + c] = precision[ends[c] - counts[c]:ends[c]].mean()
    return aps


def mean_average_precision(table: ScoreTable):
    """(mAP, per-class AP with NaN for skipped classes without positives)."""
    per_class = _column_aps(table.scores, table.targets)
    scorable = ~np.isnan(per_class)
    skipped = per_class.size - int(scorable.sum())
    if skipped:
        diagnostics.record("map_class_without_positives", skipped)
    if not scorable.any():
        diagnostics.record("map_no_scorable_classes")
        return 0.0, per_class
    return float(np.mean(per_class[scorable])), per_class


def compute_report(table: ScoreTable, sp_indices, sp_mode: str = "exact"):
    """All Table-style metrics in one pass over a score table.

    Returns (values, per-class AP): `values` maps each of METRIC_KEYS, in
    that order, to its fraction; the AP is NaN for classes without positives.
    """
    if sp_mode not in SP_MODES:
        raise ValueError(f"unknown sp_mode: {sp_mode!r}")
    if sp_mode == "exact":
        sp_acc = exact_match(table, restrict=sp_indices)
    else:
        sp_acc = sp_argmax_accuracy(table, sp_indices)
    mll_acc = exact_match(table)
    mp, per_class = mean_average_precision(table)
    op, orec, of1, cp, cr, cf1 = overall_and_perclass(table)
    values = (sp_acc, mll_acc, mp, hamming_loss(table), op, orec, of1, cp, cr, cf1)
    return dict(zip(METRIC_KEYS, values)), per_class


def percentages(fractions: dict) -> dict:
    """Each metric as a percentage rounded to two decimals, the form reports print and store."""
    return {k: round(v * 100.0, 2) for k, v in fractions.items()}


def format_report_json(values: dict) -> str:
    """Percentages rounded to two decimals, keys in the order `values` holds them."""
    return json.dumps(percentages(values), indent=2) + "\n"


_SCORE_BLOCK_ROWS = 256  # rows whose target text is made in one step


def _target_texts(targets: np.ndarray) -> list:
    """The "0,1,..." text of each row of a uint8 0/1 block, made as one byte buffer."""
    n, C = targets.shape
    buf = np.full((n, 2 * C), ord(","), dtype=np.uint8)
    buf[:, 0::2] = targets + ord("0")
    text = buf.tobytes().decode("ascii")
    w = 2 * C
    return [text[i * w:(i + 1) * w - 1] for i in range(n)]


def write_score_csv(path, table: ScoreTable, ids, names) -> None:
    """Scores plus targets, one sample per row; re-read by read_score_csv.

    Scores are `format_csv_row` text. Targets are 0/1 (`ScoreTable`
    guarantees it), so their text is made a block of rows at a time.
    """
    if len(ids) != table.n or len(names) != table.n_classes:
        raise ValueError("ids/names do not match the score table")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(names) + "," + ",".join(f"target:{n}" for n in names) + "\n")
        for start in range(0, table.n, _SCORE_BLOCK_ROWS):
            block = slice(start, start + _SCORE_BLOCK_ROWS)
            targets = _target_texts(table.targets[block])
            for sid, srow, trow in zip(ids[block], table.scores[block], targets):
                fh.write(f"{sid},{format_csv_row(srow)},{trow}\n")


def read_score_csv(path, threshold: float = 0.5):
    """Returns (ids, names, ScoreTable) from write_score_csv output."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("empty score file")
    header = lines[0].split(",")
    try:
        first_target = next(i for i, h in enumerate(header) if h.startswith("target:"))
    except StopIteration:
        raise ValueError("score file lacks target columns") from None
    names = header[1:first_target]
    ids = []
    scores = []
    targets = []
    for line in lines[1:]:
        parts = line.split(",")
        ids.append(parts[0])
        scores.append([float(v) for v in parts[1:first_target]])
        targets.append([int(v) for v in parts[first_target:]])
    table = ScoreTable(np.asarray(scores), np.asarray(targets), threshold)
    return ids, names, table
