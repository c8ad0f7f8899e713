"""Slow, loop-only recomputation of every metric for external verification.

Nothing here shares code with metrics.py beyond the raw arrays: sorting,
counting and averaging are all spelled out directly so the two paths can
check each other.
"""

from __future__ import annotations

import math


def oracle_metrics(scores, targets, threshold: float = 0.5, sp_indices=None) -> dict:
    """All ten report metrics as plain fractions, computed with bare loops."""
    scores = [[float(v) for v in row] for row in scores]
    targets = [[int(v) for v in row] for row in targets]
    n = len(scores)
    if n == 0:
        raise ValueError("need at least one sample")
    C = len(scores[0])
    pred = [[1 if scores[i][c] > threshold else 0 for c in range(C)] for i in range(n)]

    tp = [0] * C
    fp = [0] * C
    fn = [0] * C
    for i in range(n):
        for c in range(C):
            if pred[i][c] == 1 and targets[i][c] == 1:
                tp[c] += 1
            elif pred[i][c] == 1 and targets[i][c] == 0:
                fp[c] += 1
            elif pred[i][c] == 0 and targets[i][c] == 1:
                fn[c] += 1

    def ratio(a, b):
        return a / b if b != 0 else 0.0

    op = ratio(sum(tp), sum(tp) + sum(fp))
    orec = ratio(sum(tp), sum(tp) + sum(fn))
    of1 = ratio(2 * op * orec, op + orec)
    # exactly rounded means, as metrics.py takes them, so a round-half tie cannot split the two
    cp = math.fsum(ratio(tp[c], tp[c] + fp[c]) for c in range(C)) / C
    cr = math.fsum(ratio(tp[c], tp[c] + fn[c]) for c in range(C)) / C
    cf1 = ratio(2 * cp * cr, cp + cr)

    mismatches = 0
    exact = 0
    for i in range(n):
        row_ok = True
        for c in range(C):
            if pred[i][c] != targets[i][c]:
                mismatches += 1
                row_ok = False
        if row_ok:
            exact += 1
    hl = mismatches / (n * C)
    mll_acc = exact / n

    if sp_indices is None:
        sp_indices = list(range(C))
    sp_indices = [int(i) for i in sp_indices]
    sp_exact = 0
    for i in range(n):
        if all(pred[i][c] == targets[i][c] for c in sp_indices):
            sp_exact += 1
    sp_acc = sp_exact / n

    ap_values = []
    for c in range(C):
        positives = sum(targets[i][c] for i in range(n))
        if positives == 0:
            continue
        ap_values.append(oracle_average_precision([scores[i][c] for i in range(n)],
                                                  [targets[i][c] for i in range(n)]))
    mp = sum(ap_values) / len(ap_values) if ap_values else 0.0

    return {
        "SP_ACC": sp_acc,
        "MLL_ACC": mll_acc,
        "mAP": mp,
        "HL": hl,
        "OP": op,
        "OR": orec,
        "OF1": of1,
        "CP": cp,
        "CR": cr,
        "CF1": cf1,
    }


def oracle_average_precision(scores, targets) -> float:
    """AP by an explicit walk down the ranking (score desc, index asc on ties)."""
    items = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    seen_pos = 0
    precisions = []
    for rank, i in enumerate(items, start=1):
        if int(targets[i]) == 1:
            seen_pos += 1
            precisions.append(seen_pos / rank)
    if not precisions:
        raise ValueError("average precision needs at least one positive")
    return sum(precisions) / len(precisions)
