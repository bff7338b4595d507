"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import choose_k_elbow, cluster_cutoffs, kmeans_1d, wcss
from repro.core.quotas import QueueStats, solve_quotas
from repro.core.wrs import WorkloadBounds, WrsParams, compute_wrs, max_possible_wrs
from repro.hardware.gpu import A40_48GB, GpuDevice, MemoryExhausted
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.metrics.summary import percentile, throughput_under_slo
from repro.sim.simulator import Simulator
from repro.workload.distributions import sample_lognormal_lengths, zipf_weights


# --------------------------------------------------------------------- #
# Simulator
# --------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_simulator_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda t=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# --------------------------------------------------------------------- #
# GPU accounting
# --------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.sampled_from(["kv", "adapter", "adapter_cache"]),
                          st.integers(min_value=0, max_value=2 ** 32)),
                max_size=40))
def test_gpu_accounting_never_negative_or_overcommitted(ops):
    dev = GpuDevice(A40_48GB)
    held = {}
    for category, nbytes in ops:
        try:
            dev.reserve(category, nbytes)
            held[category] = held.get(category, 0) + nbytes
        except MemoryExhausted:
            pass
    assert dev.used_bytes <= dev.capacity
    assert dev.free_bytes >= 0
    for category, amount in held.items():
        assert dev.used(category) == amount


# --------------------------------------------------------------------- #
# PCIe conservation
# --------------------------------------------------------------------- #
@given(st.lists(st.integers(min_value=0, max_value=2 ** 28), min_size=1, max_size=30))
def test_pcie_conserves_bytes_and_orders_fifo(sizes):
    sim = Simulator()
    link = PcieLink(sim, PcieSpec())
    finished = []
    for i, size in enumerate(sizes):
        link.submit(size, callback=lambda x, i=i: finished.append(i))
    sim.run()
    assert finished == list(range(len(sizes)))
    assert link.total_bytes_moved == sum(sizes)
    assert link.queue_depth == 0


# --------------------------------------------------------------------- #
# Distributions
# --------------------------------------------------------------------- #
@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_zipf_weights_are_a_distribution(n, alpha):
    w = zipf_weights(n, alpha)
    assert w.shape == (n,)
    assert abs(w.sum() - 1.0) < 1e-9
    assert (w >= 0).all()
    assert (np.diff(w) <= 1e-12).all()


@given(st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=0.01, max_value=2.0),
       st.integers(min_value=1, max_value=10000))
@settings(max_examples=30)
def test_lognormal_lengths_in_range(mean, sigma, max_len):
    rng = np.random.default_rng(0)
    lengths = sample_lognormal_lengths(rng, mean, sigma, max_len, 200)
    assert (lengths >= 1).all()
    assert (lengths <= max_len).all()


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_within_data_range(values, q):
    p = percentile(values, q)
    assert min(values) <= p <= max(values)


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=12),
       st.floats(min_value=0.01, max_value=200.0))
def test_throughput_under_slo_within_load_range(latencies, slo):
    loads = [float(i + 1) for i in range(len(latencies))]
    result = throughput_under_slo(loads, latencies, slo)
    assert 0.0 <= result <= loads[-1]


# --------------------------------------------------------------------- #
# WRS
# --------------------------------------------------------------------- #
@given(st.integers(min_value=1, max_value=10000),
       st.integers(min_value=1, max_value=10000),
       st.one_of(st.none(), st.integers(min_value=1, max_value=10 ** 10)))
def test_wrs_bounded(inp, out, adapter_bytes):
    bounds = WorkloadBounds(4096, 1024, 10 ** 9)
    wrs = compute_wrs(inp, out, adapter_bytes, bounds)
    assert 0.0 <= wrs <= max_possible_wrs() + 1e-9


@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=1024))
def test_wrs_output_only_matches_fraction(inp, out):
    bounds = WorkloadBounds(4096, 1024, 10 ** 9)
    wrs = compute_wrs(inp, out, None, bounds, WrsParams(mode="output_only"))
    assert wrs == min(1.0, out / 1024)


# --------------------------------------------------------------------- #
# Clustering
# --------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=2, max_size=200),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_kmeans_labels_valid_and_centroids_sorted(values, k):
    centroids, labels = kmeans_1d(values, k)
    assert centroids.size >= 1
    assert (np.diff(centroids) >= -1e-12).all()
    assert labels.shape == (len(values),)
    assert labels.max() < centroids.size
    assert wcss(values, centroids, labels) >= 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=200))
@settings(max_examples=40)
def test_choose_k_within_bounds(values):
    k, centroids, labels = choose_k_elbow(values, k_max=4)
    assert 1 <= k <= 4
    assert labels.shape == (len(values),)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=2, max_size=6, unique=True))
def test_cutoffs_strictly_between_centroids(centroids):
    cuts = cluster_cutoffs(np.array(centroids))
    ordered = sorted(centroids)
    for i, cut in enumerate(cuts):
        assert ordered[i] <= cut <= ordered[i + 1]


# --------------------------------------------------------------------- #
# Quotas
# --------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e4),
                          st.floats(min_value=1e-3, max_value=60.0),
                          st.floats(min_value=0.0, max_value=50.0)),
                min_size=1, max_size=6),
       st.floats(min_value=100.0, max_value=1e6),
       st.floats(min_value=0.1, max_value=30.0))
@settings(max_examples=60)
def test_quotas_nonnegative_and_never_exceed_total(raw_stats, total, slo):
    stats = [QueueStats(s, d, lam) for s, d, lam in raw_stats]
    quotas = solve_quotas(stats, total, slo)
    assert len(quotas) == len(stats)
    assert all(q >= 0 for q in quotas)
    assert sum(quotas) <= total * (1 + 1e-9)
