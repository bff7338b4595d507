"""1-D K-means over request sizes, with WCSS-based K selection (§4.3.4).

The scheduler clusters the recent WRS distribution for K = 1, 2, ... up to
Kmax, computes the Within-Cluster Sum of Squares for each K, and derives
queue cutoffs as the midpoints between consecutive centroids.

Note on K selection: the paper says it "picks the K that yields minimal
WCSS", but WCSS is monotonically non-increasing in K, so taken literally that
always returns Kmax.  We implement the standard elbow criterion — the K with
the largest drop-off in marginal WCSS improvement — which is the only reading
that can pick fewer queues when the size distribution is unimodal.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def kmeans_1d(
    values: Sequence[float],
    k: int,
    max_iter: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 1-D K-means.

    Initialization uses evenly-spaced quantiles (deterministic, which is both
    reproducible and near-optimal in one dimension).  Returns
    ``(sorted_centroids, labels)``; labels index the sorted centroids.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot cluster an empty sample")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, np.unique(data).size)
    centroids = np.quantile(data, np.linspace(0, 1, 2 * k + 1)[1::2])
    centroids = np.unique(centroids)
    k = centroids.size
    for _ in range(max_iter):
        labels = _nearest(data, centroids)
        new_centroids = centroids.copy()
        for j in range(k):
            members = data[labels == j]
            if members.size:
                # ndarray.mean() is this pairwise sum and one division.
                new_centroids[j] = np.add.reduce(members) / members.size
        new_centroids = np.sort(new_centroids)
        if _allclose(new_centroids.tolist(), centroids.tolist()):
            centroids = new_centroids
            break
        centroids = new_centroids
    return centroids, _nearest(data, centroids)


def _nearest(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, the first one on ties.

    The labels of ``np.argmin(np.abs(data[:, None] - centroids), axis=1)``,
    computed one centroid at a time, without the (n, k) distance matrix.
    """
    best = np.abs(data - centroids[0])
    labels = np.zeros(data.size, dtype=np.intp)
    for j in range(1, centroids.size):
        distance = np.abs(data - centroids[j])
        closer = distance < best
        labels[closer] = j
        np.minimum(best, distance, out=best)
    return labels


def _allclose(a: list[float], b: list[float]) -> bool:
    """``np.allclose(a, b)`` (rtol 1e-05, atol 1e-08) on a few floats."""
    for x, y in zip(a, b):
        if not ((abs(x - y) <= 1e-08 + 1e-05 * abs(y) and math.isfinite(y))
                or x == y):
            return False
    return True


def wcss(values: Sequence[float], centroids: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squares for a clustering result."""
    data = np.asarray(values, dtype=float)
    return float(np.sum((data - centroids[labels]) ** 2))


#: A step K-1 -> K must shrink WCSS below this ratio to justify another
#: queue.  Splitting a single Gaussian mode only reaches ~0.36, so genuine
#: modes pass and noise does not.
ELBOW_IMPROVEMENT_RATIO = 0.3


def choose_k_elbow(
    values: Sequence[float], k_max: int = 4,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Pick K in 1..k_max by the elbow of the WCSS curve; return it with its
    fit, ``(k, centroids, labels)`` as :func:`kmeans_1d` gives them.

    K grows while each additional cluster still shrinks WCSS by a large
    factor (< ``ELBOW_IMPROVEMENT_RATIO``); the first step that stops paying
    ends the search, so K + 1 is the largest K fitted.  Splitting a
    well-separated mode shrinks WCSS by orders of magnitude, while splitting
    a single Gaussian mode only reaches ~0.36x, so the threshold separates
    real structure from noise.  Degenerate cases (constant samples,
    k_max = 1) pick 1.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot choose K for an empty sample")
    k_max = max(1, min(k_max, np.unique(data).size))
    best = kmeans_1d(data, 1)
    if k_max == 1:
        return 1, *best
    prev = wcss(data, *best)
    if prev <= 1e-12:
        return 1, *best
    best_k = 1
    for k in range(2, k_max + 1):
        fit = kmeans_1d(data, k)
        curr = wcss(data, *fit)
        if curr / prev >= ELBOW_IMPROVEMENT_RATIO:
            break
        best_k, best, prev = k, fit, curr
        if prev <= 1e-12:
            break
    return best_k, *best


def cluster_cutoffs(centroids: np.ndarray) -> list[float]:
    """Queue boundaries: midpoints between consecutive sorted centroids.

    K centroids yield K-1 cutoffs; queue i handles sizes in
    ``[cutoff[i-1], cutoff[i])``.
    """
    sorted_c = np.sort(np.asarray(centroids, dtype=float))
    return [float((sorted_c[i] + sorted_c[i + 1]) / 2.0) for i in range(sorted_c.size - 1)]
