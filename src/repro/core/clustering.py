"""1-D K-means over request sizes, with WCSS-based K selection (§4.3.4).

The scheduler clusters the recent WRS distribution for K = 1..Kmax, computes
the Within-Cluster Sum of Squares for each K, and derives queue cutoffs as
the midpoints between consecutive centroids.

Note on K selection: the paper says it "picks the K that yields minimal
WCSS", but WCSS is monotonically non-increasing in K, so taken literally that
always returns Kmax.  We implement the standard elbow criterion — the K with
the largest drop-off in marginal WCSS improvement — which is the only reading
that can pick fewer queues when the size distribution is unimodal.
"""

from __future__ import annotations

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
        labels = np.argmin(np.abs(data[:, None] - centroids[None, :]), axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = data[labels == j]
            if members.size:
                new_centroids[j] = members.mean()
        new_centroids = np.sort(new_centroids)
        if np.allclose(new_centroids, centroids):
            centroids = new_centroids
            break
        centroids = new_centroids
    labels = np.argmin(np.abs(data[:, None] - centroids[None, :]), axis=1)
    return centroids, labels


def wcss(values: Sequence[float], centroids: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squares for a clustering result."""
    data = np.asarray(values, dtype=float)
    return float(np.sum((data - centroids[labels]) ** 2))


#: A step K-1 -> K must shrink WCSS below this ratio to justify another
#: queue.  Splitting a single Gaussian mode only reaches ~0.36, so genuine
#: modes pass and noise does not.
ELBOW_IMPROVEMENT_RATIO = 0.3


def choose_k_elbow(values: Sequence[float], k_max: int = 4) -> int:
    """Pick K in 1..k_max by the elbow of the WCSS curve.

    K grows while each additional cluster still shrinks WCSS by a large
    factor (< ``ELBOW_IMPROVEMENT_RATIO``); the first step that stops paying
    ends the search.  Splitting a well-separated mode shrinks WCSS by orders
    of magnitude, while splitting a single Gaussian mode only reaches ~0.36x,
    so the threshold separates real structure from noise.  Degenerate cases
    (constant samples, k_max = 1) return 1.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot choose K for an empty sample")
    k_max = max(1, min(k_max, np.unique(data).size))
    if k_max == 1:
        return 1
    scores = []
    for k in range(1, k_max + 1):
        centroids, labels = kmeans_1d(data, k)
        scores.append(wcss(data, centroids, labels))
    if scores[0] <= 1e-12:
        return 1
    best_k = 1
    for k in range(2, k_max + 1):
        prev, curr = scores[k - 2], scores[k - 1]
        if prev <= 1e-12 or curr / prev >= ELBOW_IMPROVEMENT_RATIO:
            break
        best_k = k
    return best_k


def cluster_cutoffs(centroids: np.ndarray) -> list[float]:
    """Queue boundaries: midpoints between consecutive sorted centroids.

    K centroids yield K-1 cutoffs; queue i handles sizes in
    ``[cutoff[i-1], cutoff[i])``.
    """
    sorted_c = np.sort(np.asarray(centroids, dtype=float))
    return [float((sorted_c[i] + sorted_c[i + 1]) / 2.0) for i in range(sorted_c.size - 1)]
