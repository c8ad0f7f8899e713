"""K-means over label embeddings and cluster relabeling of samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .corpus import Dataset


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (n_clusters, d)
    assignments: np.ndarray
    inertia: float
    objective_trace: np.ndarray  # end-of-iteration objective, non-increasing
    n_iter: int


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)


def _objective(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    return float(((points - centroids[assign]) ** 2).sum())


def _plus_plus_init(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    M = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]))
    centroids[0] = points[int(rng.integers(M))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(M, p=d2 / total))
        else:
            pick = int(rng.integers(M))  # all points coincide with a centroid
        centroids[k] = points[pick]
        d2 = np.minimum(d2, ((points - centroids[k]) ** 2).sum(axis=1))
    return centroids


def _repair_empty(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """Give every empty cluster the globally farthest point of a non-singleton cluster."""
    n_clusters = centroids.shape[0]
    assign = assign.copy()
    for k in range(n_clusters):
        if np.any(assign == k):
            continue
        sizes = np.bincount(assign, minlength=n_clusters)
        cost = D2[np.arange(points.shape[0]), assign]
        movable = sizes[assign] >= 2  # singletons stay put or we just move the hole
        cost = np.where(movable, cost, -np.inf)
        far = int(np.argmax(cost))
        assign[far] = k
        diagnostics.record("kmeans_empty_cluster_repaired")
    return assign


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float) -> KMeansResult:
    prev_assign = None
    trace = []
    assign = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iter):
        D2 = _squared_distances(points, centroids)
        assign = D2.argmin(axis=1)  # ties resolve to the lowest index
        if not np.all(np.bincount(assign, minlength=centroids.shape[0]) > 0):
            assign = _repair_empty(points, centroids, assign, D2)
        new_centroids = centroids.copy()
        for k in range(centroids.shape[0]):
            members = points[assign == k]
            if members.shape[0] > 0:
                new_centroids[k] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        trace.append(_objective(points, centroids, assign))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        if shift < tol:
            break
    return KMeansResult(
        centroids=centroids,
        assignments=assign,
        inertia=trace[-1],
        objective_trace=np.asarray(trace),
        n_iter=len(trace),
    )


def kmeans(points: np.ndarray, n_clusters: int, *, seed: int = 0, max_iter: int = 100, tol: float = 1e-6) -> KMeansResult:
    """Deterministic k-means: seeded ++-style init, then Lloyd iterations.

    The end-of-iteration objective trace is non-increasing; empty clusters
    are repaired by stealing the globally farthest point.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a (M, d) matrix")
    if n_clusters < 1:
        raise ValueError("n_clusters must be positive")
    if pts.shape[0] < n_clusters:
        raise ValueError(f"{pts.shape[0]} points cannot fill {n_clusters} clusters")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(pts, n_clusters, rng)
    return _lloyd(pts, centroids, max_iter, tol)


def relabel(dataset: Dataset, vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each sample's cluster, in dataset order: the centroid nearest its mean positive-label embedding."""
    Z = np.asarray(vectors, dtype=np.float64)
    C, d = dataset.vocabulary.size, centroids.shape[1]
    if Z.shape != (C, d):
        raise ValueError(f"embeddings {Z.shape} do not match {C} label bits and centroid width {d}")
    Y = dataset.labels
    means = (Y @ Z) / Y.sum(axis=1, keepdims=True)  # every sample has a label bit
    D2 = _squared_distances(means, centroids)
    return D2.argmin(axis=1).astype(np.int64)  # ties resolve to the lowest cluster index
