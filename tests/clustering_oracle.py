"""The K-means refresh as it was, kept as an oracle for ``core.clustering``.

``kmeans_1d`` here labels points through an (n, k) ``argmin``, tests
convergence with ``np.allclose`` and takes centroids with
``ndarray.mean()``; ``choose_k_elbow`` fits every K in 1..k_max and returns
only K, which the MLQ then fitted again.  ``repro.core.clustering`` must
give byte-equal K, centroids and labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ELBOW_IMPROVEMENT_RATIO = 0.3


def kmeans_1d(
    values: Sequence[float],
    k: int,
    max_iter: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
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
    data = np.asarray(values, dtype=float)
    return float(np.sum((data - centroids[labels]) ** 2))


def choose_k_elbow(values: Sequence[float], k_max: int = 4) -> int:
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


def refresh_fit(values: Sequence[float], k_max: int = 4):
    """The MLQ refresh's old two steps: choose K, then fit it again."""
    k = choose_k_elbow(values, k_max)
    centroids, labels = kmeans_1d(values, k)
    return k, centroids, labels
