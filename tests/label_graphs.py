"""Label graphs large and sparse enough for LabelGraph's gather path, shared by the graph tests and criterion 1."""

import numpy as np

from mllgraph.cooccur import AdjacencyConfig, build_adjacency, normalize_adjacency


def sparse_label_graph(seed: int = 0) -> np.ndarray:
    """A (256, 256) graph of at most 3 entries per row, besides one hub row.

    Every row has a self-loop; rows 0-9 hold only that, rows 10-254 two more
    entries, and row 255 is a hub of 60 entries, which the cutoff keeps on
    the dense path.
    """
    C = 256
    rng = np.random.default_rng(seed)
    B = np.diag(rng.uniform(0.5, 1.0, C))
    for i in range(10, C - 1):
        B[i, rng.choice(C, size=2, replace=False)] += rng.uniform(0.05, 0.3, 2)
    B[C - 1, rng.choice(C, size=60, replace=False)] = rng.uniform(0.01, 0.1, 60)
    return B


def reweight_one_graph(triples: int = 86) -> np.ndarray:
    """B-hat at reweight 1 over 3 * `triples` classes: its diagonal is zero and a third of its columns are empty.

    In each triple (a, b, c), a and c come together in 12 samples and b in
    2 of them: b keeps a and c, a and c keep each other, and nobody keeps b.
    """
    C = 3 * triples
    Y = np.zeros((12 * triples, C))
    for t in range(triples):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        Y[12 * t:12 * t + 12, [a, c]] = 1
        Y[12 * t:12 * t + 2, b] = 1
    X = (Y.T @ Y).astype(np.int64)
    return normalize_adjacency(build_adjacency(X, AdjacencyConfig(reweight=1.0)))


def arrays_in(obj) -> list:
    """Every ndarray `obj` holds, through its attributes, tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [arr for item in obj for arr in arrays_in(item)]
    return [arr for item in getattr(obj, "__dict__", {}).values() for arr in arrays_in(item)]
