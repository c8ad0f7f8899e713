"""The CSV text form of every artifact: one row format, the writers, and the score file's reader.

A cell is `str` of an int or `repr` of a float, the shortest text that
reads back to the same bits; a NaN, a missing value, is an empty cell.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .metrics import ScoreTable

# What the CSV artifacts cannot carry in a label name or a sample id: the
# comma, every character `str.splitlines` breaks a line at, and a lone
# surrogate (U+D800 to U+DFFF), which UTF-8 cannot encode. A name must also
# not start with the prefix that marks a score file's target columns.
CSV_BREAKS = frozenset(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
CSV_BREAK_FAULT = "holds a comma or a line break"
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")
TARGET_PREFIX = "target:"


def holds_surrogate(text: str) -> bool:
    """Whether `text` holds a lone surrogate, as an undecodable byte read with
    errors="surrogateescape" does. An ASCII text holds none, and `str.isascii`
    answers that without a scan."""
    return not text.isascii() and _LONE_SURROGATE.search(text) is not None


def csv_text_fault(text: str):
    """What keeps `text` out of a CSV artifact's cell, as "holds ...", or None."""
    if not CSV_BREAKS.isdisjoint(text):
        return CSV_BREAK_FAULT
    if holds_surrogate(text):
        return "holds a lone surrogate (U+D800 to U+DFFF)"
    return None


def format_csv_row(values: np.ndarray) -> str:
    """The cells of a 1-D int or float array, comma-separated.

    The row is converted with one `tolist()` call rather than element by
    element; callers pass one row at a time so that a whole matrix is never
    held as Python objects.
    """
    return ",".join(map(repr, values.tolist())).replace("nan", "")


def write_rows(path, header, labels, rows) -> None:
    """The `header` cells, then one line per label: the label, then its row's cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for label, row in zip(labels, rows):
            fh.write(f"{label},{format_csv_row(row)}\n")


def write_embeddings_csv(path, vectors: np.ndarray, names) -> None:
    write_rows(path, ["name"] + [f"e{j}" for j in range(vectors.shape[1])], names, vectors)


def write_centroids_csv(path, centroids: np.ndarray) -> None:
    header = ["cluster"] + [f"c{j}" for j in range(centroids.shape[1])]
    write_rows(path, header, range(len(centroids)), centroids)


def write_assignments_csv(path, ids, assignments: np.ndarray) -> None:
    write_rows(path, ("id", "cluster"), ids, assignments[:, None])


def write_matrix_csv(path, matrix: np.ndarray, names) -> None:
    """Row-major CSV with the label names as header; integer matrices stay integer.

    The cells of these finite matrices are `format_csv_row`'s, but label
    statistics are mostly zeros, so only a row's nonzero cells are formatted
    and every other cell is the one zero text. A float is zero by its bits,
    so -0.0 keeps its own text.
    """
    M = np.asarray(matrix)
    if np.issubdtype(M.dtype, np.integer):
        zero, bits = "0", M
    else:
        M = np.ascontiguousarray(M, dtype=np.float64)
        zero, bits = "0.0", M.view(np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row, row_bits in zip(M, bits):
            nz = np.flatnonzero(row_bits)
            cells = [zero] * row.size
            for j, text in zip(nz.tolist(), map(repr, row[nz].tolist())):
                cells[j] = text
            fh.write(",".join(cells) + "\n")


def _score_header(names) -> str:
    return ",".join(["id", *names, *(TARGET_PREFIX + n for n in names)])


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

    Targets are 0/1 (`ScoreTable` guarantees it), so their text is made a
    block of rows at a time.
    """
    if len(ids) != table.n or len(names) != table.n_classes:
        raise ValueError("ids/names do not match the score table")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_score_header(names) + "\n")
        for start in range(0, table.n, _SCORE_BLOCK_ROWS):
            block = slice(start, start + _SCORE_BLOCK_ROWS)
            targets = _target_texts(table.targets[block])
            for sid, srow, trow in zip(ids[block], table.scores[block], targets):
                fh.write(f"{sid},{format_csv_row(srow)},{trow}\n")


def read_score_csv(path, threshold: float = 0.5):
    """(ids, names, ScoreTable) of a file as write_score_csv writes it.

    Any other file is a ValueError that names its first bad line: a line
    that is not UTF-8 text, a header other than `id,<names>,target:<names>`,
    a row without 1 + 2C cells, a score that is not a number in [0, 1] or a
    target other than 0 or 1.
    """
    lines = Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    if lines and holds_surrogate(lines[0]):
        raise ValueError("line 1: not UTF-8 text")
    header = lines[0].split(",") if lines else []
    C = (len(header) - 1) // 2
    names = header[1:1 + C]
    if C < 1 or _score_header(names) != lines[0]:
        raise ValueError("line 1: the header is not id, the class names, then their target columns")
    ids, scores, targets = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if holds_surrogate(line):
                raise ValueError("not UTF-8 text")
            if len(cells) != 1 + 2 * C:
                raise ValueError(f"{len(cells)} cells, not {1 + 2 * C}")
            if not {"0", "1"}.issuperset(cells[1 + C:]):
                raise ValueError("a target is not 0 or 1")
            row = [float(v) for v in cells[1:1 + C]]
            if not all(0.0 <= v <= 1.0 for v in row):
                raise ValueError("a score is not a number in [0, 1]")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        ids.append(cells[0])
        scores.append(row)
        targets.append([v == "1" for v in cells[1 + C:]])
    shape = (len(ids), C)
    table = ScoreTable(np.array(scores).reshape(shape), np.array(targets, dtype=np.uint8).reshape(shape), threshold)
    return ids, names, table
