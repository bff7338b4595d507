"""Tests for 1-D K-means, WCSS and the elbow K selection (§4.3.4)."""

import clustering_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.core.clustering import (
    _nearest,
    choose_k_elbow,
    cluster_cutoffs,
    kmeans_1d,
    wcss,
)
from repro.core.wrs import WorkloadBounds, compute_wrs
from repro.llm.model import LLAMA_7B
from repro.sim.rng import RngStreams
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def test_kmeans_separates_two_clear_clusters():
    data = [1.0, 1.1, 0.9, 10.0, 10.2, 9.8]
    centroids, labels = kmeans_1d(data, 2)
    assert centroids[0] == pytest.approx(1.0, abs=0.2)
    assert centroids[1] == pytest.approx(10.0, abs=0.3)
    assert list(labels[:3]) == [0, 0, 0]
    assert list(labels[3:]) == [1, 1, 1]


def test_kmeans_k1_centroid_is_mean():
    data = [1.0, 2.0, 3.0]
    centroids, labels = kmeans_1d(data, 1)
    assert centroids[0] == pytest.approx(2.0)
    assert (labels == 0).all()


def test_kmeans_centroids_sorted():
    data = list(np.random.default_rng(0).uniform(0, 1, 200))
    centroids, _ = kmeans_1d(data, 4)
    assert (np.diff(centroids) >= 0).all()


def test_kmeans_caps_k_at_distinct_values():
    centroids, labels = kmeans_1d([5.0, 5.0, 5.0], 3)
    assert centroids.size == 1


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans_1d([], 2)
    with pytest.raises(ValueError):
        kmeans_1d([1.0], 0)


def test_wcss_zero_for_perfect_fit():
    data = [1.0, 1.0, 5.0, 5.0]
    centroids, labels = kmeans_1d(data, 2)
    assert wcss(data, centroids, labels) == pytest.approx(0.0, abs=1e-12)


def test_wcss_non_increasing_in_k():
    data = list(np.random.default_rng(1).normal(0, 1, 300))
    scores = []
    for k in range(1, 5):
        centroids, labels = kmeans_1d(data, k)
        scores.append(wcss(data, centroids, labels))
    assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))


def test_elbow_picks_two_for_bimodal():
    rng = np.random.default_rng(2)
    data = np.concatenate([rng.normal(0.1, 0.01, 200), rng.normal(0.9, 0.01, 200)])
    assert choose_k_elbow(data, k_max=4)[0] == 2


def test_elbow_picks_three_for_trimodal():
    rng = np.random.default_rng(3)
    data = np.concatenate([
        rng.normal(0.1, 0.005, 200),
        rng.normal(0.5, 0.005, 200),
        rng.normal(0.9, 0.005, 200),
    ])
    assert choose_k_elbow(data, k_max=4)[0] == 3


def test_elbow_degenerate_cases():
    assert choose_k_elbow([5.0, 5.0, 5.0], k_max=4)[0] == 1
    assert choose_k_elbow([1.0, 2.0], k_max=1)[0] == 1
    with pytest.raises(ValueError):
        choose_k_elbow([], k_max=4)


def test_elbow_never_exceeds_kmax():
    rng = np.random.default_rng(4)
    data = rng.uniform(0, 1, 500)
    assert 1 <= choose_k_elbow(data, k_max=4)[0] <= 4


def test_cutoffs_are_midpoints():
    cutoffs = cluster_cutoffs(np.array([1.0, 3.0, 9.0]))
    assert cutoffs == [2.0, 6.0]


def test_cutoffs_single_centroid_empty():
    assert cluster_cutoffs(np.array([4.0])) == []


# --------------------------------------------------------------------- #
# The refresh against the old implementation (tests/clustering_oracle.py)
# --------------------------------------------------------------------- #
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def _samples(draw):
    """WRS-like samples: arbitrary, few distinct values (so K can exceed
    the distinct count), constant, a single point, two tight modes, or
    clusters with points exactly on the midpoint between them."""
    kind = draw(st.sampled_from(
        ["any", "few", "constant", "two_modes", "midpoints"]))
    if kind == "any":
        return draw(st.lists(_unit, min_size=1, max_size=300))
    if kind == "few":
        pool = draw(st.lists(_unit, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    if kind == "constant":
        return [draw(_unit)] * draw(st.integers(1, 40))
    if kind == "two_modes":
        low = draw(st.lists(st.floats(0.05, 0.15), min_size=1, max_size=80))
        high = draw(st.lists(st.floats(0.85, 0.95), min_size=1, max_size=80))
        return draw(st.permutations(low + high))
    ends = draw(st.lists(_unit, min_size=2, max_size=4, unique=True))
    values = [v for v in ends for _ in range(draw(st.integers(1, 5)))]
    ends.sort()
    values += [(a + b) / 2.0 for a, b in zip(ends, ends[1:])]
    return draw(st.permutations(values))


def _same(fit, expected):
    """Byte-equal arrays of the same dtype and shape."""
    for got, want in zip(fit, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(_samples(), st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_kmeans_matches_the_argmin_oracle(values, k):
    _same(kmeans_1d(values, k), oracle.kmeans_1d(values, k))


@given(_samples(), st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_elbow_fit_matches_choose_then_refit(values, k_max):
    k, centroids, labels = choose_k_elbow(values, k_max)
    expected_k, *expected = oracle.refresh_fit(values, k_max)
    assert k == expected_k
    _same((centroids, labels), expected)


@given(st.lists(_unit, min_size=1, max_size=5, unique=True),
       st.lists(_unit, max_size=40))
@settings(max_examples=300, deadline=None)
def test_nearest_breaks_ties_like_argmin(centroids, extra):
    """Points exactly between two centroids go to the first, as with
    ``np.argmin``."""
    centroids = np.sort(np.asarray(centroids))
    data = np.asarray(
        list(centroids) + extra
        + [(a + b) / 2.0 for a, b in zip(centroids, centroids[1:])])
    expected = np.argmin(np.abs(data[:, None] - centroids[None, :]), axis=1)
    labels = _nearest(data, centroids)
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refresh_matches_the_oracle_on_trace_sized_samples(seed):
    """The WRS of a Splitwise trace, about as many samples (~3.2k) as a
    paper-mlq refresh clusters.  Some of these fits converge slowly, so
    they also pin the convergence test's tolerances (seeds 0 and 2 fail
    with a 100x looser ``rtol``)."""
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=20.0, duration=150.0,
                             rng=RngStreams(seed).get("trace"),
                             registry=registry)
    bounds = WorkloadBounds(4096, 1024, registry.max_size_bytes)
    values = [
        compute_wrs(r.input_tokens, r.output_tokens,
                    None if r.adapter_id is None
                    else registry.get(r.adapter_id).size_bytes, bounds)
        for r in trace]
    for k in range(1, 5):
        _same(kmeans_1d(values, k), oracle.kmeans_1d(values, k))
    k, *fit = choose_k_elbow(values, 4)
    expected_k, *expected = oracle.refresh_fit(values, 4)
    assert k == expected_k
    _same(fit, expected)
