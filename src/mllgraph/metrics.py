"""Multi-label evaluation: micro/macro P/R/F1, Hamming loss, exact match, mAP."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics

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


def _safe_ratios(num, den, event: str) -> np.ndarray:
    """num / den per element (or of two scalars), 0 where den is 0; each such element is counted."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    zero = den == 0
    n_zero = int(np.count_nonzero(zero))
    if n_zero:
        diagnostics.record(event, n_zero)
    return np.divide(num, den, out=np.zeros_like(num), where=~zero)


def _precision_recall_f1(tp, fp, fn, scope: str):
    """(P, R, F1) of (k,) counts; every 0/0 is 0 and counted as a `<scope>_*_zero_division` event.

    P and R are the exactly rounded means of the k ratios, as the oracle
    takes them, so a round-half tie rounds alike in both; summed counts
    (k = 1) give the overall values.
    """
    p = math.fsum(_safe_ratios(tp, tp + fp, scope + "_precision_zero_division").tolist()) / tp.size
    r = math.fsum(_safe_ratios(tp, tp + fn, scope + "_recall_zero_division").tolist()) / tp.size
    return p, r, float(_safe_ratios(2.0 * p * r, p + r, scope + "_f1_zero_division"))


def exact_match(table: ScoreTable) -> float:
    """Fraction of samples whose binarized prediction matches every target bit."""
    return float(np.mean(np.all(binarize(table) == table.targets, axis=1)))


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
    """All Table-style metrics from one binarized prediction of a score table.

    Returns (values, per-class AP): `values` maps each of METRIC_KEYS, in
    that order, to its fraction; the AP is NaN for classes without positives.
    SP_ACC counts a sample whose plane bits (`sp_indices`) are all predicted
    right, or under sp_mode "argmax" whose top-scoring plane (the first on a
    tie) is a true one; a sample without a true plane then counts when no
    plane is predicted.
    """
    if sp_mode not in SP_MODES:
        raise ValueError(f"unknown sp_mode: {sp_mode!r}")
    sp = np.asarray(sp_indices, dtype=np.int64)
    if sp.size == 0:
        raise ValueError("sp_indices must name at least one class")
    n = table.n
    pred = binarize(table)
    wrong = pred != table.targets
    if sp_mode == "exact":
        sp_correct = n - int(np.count_nonzero(wrong[:, sp].any(axis=1)))
    else:
        planes = table.targets[:, sp]
        hit = planes[np.arange(n), np.argmax(table.scores[:, sp], axis=1)] == 1
        sp_correct = int(np.where(planes.any(axis=1), hit, ~pred[:, sp].any(axis=1)).sum())
    mll_correct = n - int(np.count_nonzero(wrong.any(axis=1)))
    mp, per_class = mean_average_precision(table)
    tp = np.bitwise_and(pred, table.targets).sum(axis=0, dtype=np.int64)
    fp = pred.sum(axis=0, dtype=np.int64) - tp
    fn = table.targets.sum(axis=0, dtype=np.int64) - tp
    overall = _precision_recall_f1(*(c.sum(keepdims=True) for c in (tp, fp, fn)), "overall")
    per_class_prf = _precision_recall_f1(tp, fp, fn, "perclass")
    values = (sp_correct / n, mll_correct / n, mp, float(np.mean(wrong)), *overall, *per_class_prf)
    return dict(zip(METRIC_KEYS, values)), per_class


def percentages(fractions: dict) -> dict:
    """Each metric as a percentage rounded to two decimals, the form reports print and store."""
    return {k: round(v * 100.0, 2) for k, v in fractions.items()}


def format_report_json(values: dict) -> str:
    """Percentages rounded to two decimals, keys in the order `values` holds them."""
    return json.dumps(percentages(values), indent=2) + "\n"
