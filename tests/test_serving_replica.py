"""Tests for the data-parallel multi-replica system (§4.4)."""

import pytest

from repro.serving.engine import EngineConfig
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


@pytest.fixture
def cluster(big_registry):
    return MultiReplicaSystem.build(
        "chameleon", n_replicas=3, registry=big_registry, seed=0)


@pytest.fixture
def dp_trace(big_registry, rng_streams):
    return synthesize_trace(SPLITWISE_PROFILE, rps=15.0, duration=30.0,
                            rng=rng_streams.get("trace"), registry=big_registry)


def test_build_shares_one_clock(cluster):
    assert len(cluster.replicas) == 3
    sims = {id(replica.engine.sim) for replica in cluster.replicas}
    assert sims == {id(cluster.sim)}


def test_all_requests_complete(cluster, dp_trace):
    cluster.run_trace(dp_trace.fresh())
    done = cluster.all_requests()
    assert len(done) == len(dp_trace)
    assert all(r.finished for r in done)


def test_load_spread_across_replicas(cluster, dp_trace):
    cluster.run_trace(dp_trace.fresh())
    counts = cluster.per_replica_counts()
    assert len(counts) == 3
    assert min(counts) > 0
    # Least-loaded keeps the spread reasonable.
    assert max(counts) < 3 * min(counts)


def test_summary_aggregates(cluster, dp_trace):
    cluster.run_trace(dp_trace.fresh())
    summary = cluster.summary()
    assert summary.n_requests == len(dp_trace)
    assert summary.p99_ttft > 0
    assert 0.0 <= cluster.mean_hit_rate() <= 1.0


def test_adapter_affinity_routing(big_registry, dp_trace):
    affinity = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, dispatch_policy="adapter_affinity",
        registry=big_registry, seed=0)
    affinity.run_trace(dp_trace.fresh())
    rr = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, dispatch_policy="round_robin",
        registry=big_registry, seed=0)
    rr.run_trace(dp_trace.fresh())
    assert affinity.mean_hit_rate() >= rr.mean_hit_rate() - 0.02


def test_rejects_reused_requests(cluster, dp_trace):
    requests = dp_trace.fresh()
    cluster.run_trace(requests)
    other = MultiReplicaSystem.build("slora", n_replicas=2, seed=0)
    with pytest.raises(ValueError):
        other.run_trace(requests)


def test_rejects_zero_replicas():
    with pytest.raises(ValueError):
        MultiReplicaSystem.build("slora", n_replicas=0)


# --------------------------------------------------------------------- #
# Per-replica RNG isolation
# --------------------------------------------------------------------- #
def test_replica_seeds_are_derived_not_shared(big_registry):
    cluster = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, registry=big_registry, seed=7)
    assert [replica.predictor.rng.bit_generator.state
            for replica in cluster.replicas] == [
        RngStreams(seed).get("predictor").bit_generator.state
        for seed in (7, 8, 9)]


def test_replica_rng_streams_differ(big_registry):
    """Regression: a shared seed made predictor errors perfectly correlated
    across replicas, biasing every DP experiment."""
    cluster = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, registry=big_registry, seed=0)
    draws = [replica.predictor.rng.random() for replica in cluster.replicas]
    assert len(set(draws)) == len(draws)


def test_same_seed_is_deterministic(big_registry, dp_trace):
    def run_once():
        cluster = MultiReplicaSystem.build(
            "chameleon", n_replicas=3, dispatch_policy="p2c",
            registry=big_registry, seed=3)
        cluster.run_trace(dp_trace.fresh())
        return cluster.summary(), cluster.per_replica_counts()

    summary_a, counts_a = run_once()
    summary_b, counts_b = run_once()
    assert counts_a == counts_b
    assert summary_a.p99_ttft == summary_b.p99_ttft
    assert summary_a.p50_e2e == summary_b.p50_e2e
    assert summary_a.extra == summary_b.extra


# --------------------------------------------------------------------- #
# Dispatch-policy behaviour on skewed traces
# --------------------------------------------------------------------- #
def _alternating_burst(n=8, huge=(2000, 200), tiny=(20, 2)):
    """Huge and tiny requests arriving together: count and token load clash."""
    requests = []
    for i in range(n):
        inp, out = huge if i % 2 == 0 else tiny
        requests.append(Request(request_id=i, arrival_time=0.0,
                                input_tokens=inp, output_tokens=out))
    return requests


def _per_replica_token_totals(cluster):
    return [
        sum(r.input_tokens + r.output_tokens for r in engine.all_requests)
        for engine in cluster.engines
    ]


def test_token_weighted_balances_size_skew_better_than_jsq():
    def run_policy(policy):
        cluster = MultiReplicaSystem.build(
            "slora", n_replicas=2, dispatch_policy=policy,
            predictor_accuracy=None, seed=0)
        cluster.run_trace(_alternating_burst())
        totals = _per_replica_token_totals(cluster)
        return max(totals) / min(totals)

    # JSQ by request count pairs the huge requests onto one replica; the
    # token-weighted dispatcher splits them.
    assert run_policy("token_weighted") < run_policy("least_loaded")


def test_p2c_balances_a_skewed_trace(big_registry, dp_trace):
    cluster = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, dispatch_policy="p2c",
        registry=big_registry, seed=0)
    cluster.run_trace(dp_trace.fresh())
    counts = cluster.per_replica_counts()
    assert min(counts) > 0
    assert cluster.summary().extra["load_imbalance"] < 1.5


# --------------------------------------------------------------------- #
# Bounded adapter affinity on a hot-adapter trace
# --------------------------------------------------------------------- #
def _hot_adapter_trace(n=240, hot_fraction=0.8, spacing=0.1):
    """A skewed stream: most requests hit one hot adapter."""
    requests = []
    for i in range(n):
        adapter_id = 0 if i % 5 != 4 else 1 + (i // 5) % 19
        if hot_fraction >= 1.0:
            adapter_id = 0
        requests.append(Request(
            request_id=i, arrival_time=i * spacing,
            input_tokens=200, output_tokens=40, adapter_id=adapter_id))
    return requests


def test_bounded_affinity_spills_and_keeps_hit_rate(big_registry):
    def run_policy(policy):
        cluster = MultiReplicaSystem.build(
            "chameleon", n_replicas=4, dispatch_policy=policy,
            registry=big_registry, seed=0)
        cluster.run_trace(_hot_adapter_trace())
        return cluster

    bounded = run_policy("bounded_affinity")
    unbounded = run_policy("adapter_affinity")
    jsq = run_policy("least_loaded")

    # The unbounded variant piles the hot adapter onto few replicas; the
    # spill threshold restores balance...
    assert bounded.summary().extra["load_imbalance"] \
        < unbounded.summary().extra["load_imbalance"]
    assert bounded.cluster.stats.spills > 0
    # ...without giving up the cache benefit of affinity routing.
    assert bounded.aggregate_hit_rate() >= jsq.aggregate_hit_rate()


# --------------------------------------------------------------------- #
# Global admission queue (backpressure) end to end
# --------------------------------------------------------------------- #
def test_backpressure_queues_and_completes(big_registry):
    burst = [
        Request(request_id=i, arrival_time=0.001 * i,
                input_tokens=300, output_tokens=30)
        for i in range(12)
    ]
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry, seed=0,
        predictor_accuracy=None,
        engine_config=EngineConfig(max_batch_size=2))
    cluster.run_trace(burst)
    assert all(r.finished for r in cluster.all_requests())
    assert len(cluster.all_requests()) == len(burst)
    # 4 slots existed; the rest waited in the global queue.
    assert cluster.cluster.stats.queued == 8
    delays = [r.dispatch_queue_delay for r in cluster.all_requests()]
    assert max(delays) > 0.0
    summary = cluster.summary()
    assert summary.extra["p99_dispatch_queue_delay"] > 0.0
    assert summary.extra["cluster_queued"] == 8


def test_horizon_does_not_lose_queued_arrivals(big_registry):
    """Regression: arrivals still in the global queue when a horizon stops
    a backlogged run must stay visible in all_requests()/summary()."""
    burst = [
        Request(request_id=i, arrival_time=0.001 * i,
                input_tokens=300, output_tokens=300)
        for i in range(12)
    ]
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry, seed=0,
        predictor_accuracy=None,
        engine_config=EngineConfig(max_batch_size=2))
    cluster.run_trace(burst, horizon=0.5)
    assert len(cluster.all_requests()) == len(burst)
    assert cluster.cluster.queue_len() > 0
    assert cluster.summary().n_requests == sum(
        1 for r in cluster.all_requests() if r.finished)


def test_summary_extra_fields(cluster, dp_trace):
    cluster.run_trace(dp_trace.fresh())
    extra = cluster.summary().extra
    assert len(extra["per_replica_counts"]) == 3
    assert extra["load_imbalance"] >= 1.0
    assert 0.0 <= extra["aggregate_hit_rate"] <= 1.0
    assert extra["p99_dispatch_queue_delay"] >= 0.0


def test_aggregate_hit_rate_is_lookup_weighted(cluster, dp_trace):
    cluster.run_trace(dp_trace.fresh())
    stats = [system.adapter_manager.stats for system in cluster.replicas]
    hits = sum(s.hits for s in stats)
    lookups = sum(s.hits + s.misses + s.overlapped for s in stats)
    assert cluster.aggregate_hit_rate() == pytest.approx(hits / lookups)


# --------------------------------------------------------------------- #
# summary().extra math against hand-computed values
# --------------------------------------------------------------------- #
def _tiny_burst(n, spacing=0.0):
    return [
        Request(request_id=i, arrival_time=i * spacing,
                input_tokens=50, output_tokens=2)
        for i in range(n)
    ]


def test_load_imbalance_hand_computed(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, dispatch_policy="round_robin",
        registry=big_registry, predictor_accuracy=None, seed=0)
    cluster.run_trace(_tiny_burst(3, spacing=0.5))
    counts = cluster.per_replica_counts()
    assert sorted(counts) == [1, 2]
    # max/mean = 2 / 1.5 = 4/3 exactly.
    assert cluster.summary().extra["load_imbalance"] == pytest.approx(4 / 3)


def test_aggregate_hit_rate_hand_computed_weighting(big_registry):
    cluster = MultiReplicaSystem.build(
        "chameleon", n_replicas=2, registry=big_registry, seed=0)
    stats0 = cluster.replicas[0].adapter_manager.stats
    stats1 = cluster.replicas[1].adapter_manager.stats
    stats0.hits, stats0.misses, stats0.overlapped = 3, 1, 0   # rate 0.75, 4 lookups
    stats1.hits, stats1.misses, stats1.overlapped = 0, 1, 0   # rate 0.00, 1 lookup
    # Lookup-weighted: (3+0) / (4+1) = 0.6, not the unweighted mean 0.375.
    assert cluster.aggregate_hit_rate() == pytest.approx(0.6)
    assert cluster.mean_hit_rate() == pytest.approx((0.75 + 0.0) / 2)
    assert cluster.summary().extra["aggregate_hit_rate"] == pytest.approx(0.6)


def test_dispatch_queue_delay_percentiles_hand_computed(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0)
    cluster.run_trace(_tiny_burst(4, spacing=0.5))
    done = [r for r in cluster.all_requests() if r.finished]
    assert len(done) == 4
    for request, delay in zip(sorted(done, key=lambda r: r.request_id),
                              (0.0, 0.0, 2.0, 4.0)):
        request.dispatch_queue_delay = delay
    extra = cluster.summary().extra
    # np.percentile with linear interpolation over [0, 0, 2, 4]:
    # p50 -> index 1.5 -> 1.0; p99 -> index 2.97 -> 2 + 0.97*2 = 3.94.
    assert extra["p50_dispatch_queue_delay"] == pytest.approx(1.0)
    assert extra["p99_dispatch_queue_delay"] == pytest.approx(3.94)


def test_slo_summary_fields_hand_computed(big_registry):
    from repro.serving.admission import SloPolicy

    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0,
        slo_policy=SloPolicy(ttft_deadline=100.0))
    cluster.run_trace(_tiny_burst(4, spacing=0.5))
    summary = cluster.summary(duration=10.0)
    extra = summary.extra
    # An unloaded run beats a 100s deadline everywhere: no sheds, full
    # attainment, goodput = 4 completions over the stated 10s window.
    assert extra["cluster_shed"] == 0
    assert extra["shed_rate"] == 0.0
    assert extra["cluster_slo_attainment"] == 1.0
    assert extra["goodput_rps"] == pytest.approx(0.4)
    # Without an explicit duration the span is the last finish time.
    extra2 = cluster.summary().extra
    last_finish = max(r.finish_time for r in cluster.all_requests())
    assert extra2["goodput_rps"] == pytest.approx(4 / last_finish)


def test_slo_attainment_counts_shed_against(big_registry):
    from repro.serving.admission import SloPolicy
    from repro.serving.engine import EngineConfig as EC

    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0,
        slo_policy=SloPolicy(ttft_deadline=0.05, mode="shed"),
        engine_config=EC(max_batch_size=1))
    # Spaced arrivals with varied lengths: finish events establish the
    # wait estimator while the cluster is still overloaded, so later
    # arrivals are shed.
    burst = [
        Request(request_id=i, arrival_time=0.25 * i,
                input_tokens=500, output_tokens=20 + (i % 4) * 15)
        for i in range(16)
    ]
    cluster.run_trace(burst)
    extra = cluster.summary().extra
    shed = extra["cluster_shed"]
    assert shed > 0
    assert extra["shed_rate"] == pytest.approx(shed / 16)
    done = [r for r in cluster.all_requests() if r.finished]
    attained = [r for r in done if r.ttft <= 0.05]
    assert extra["cluster_slo_attainment"] == pytest.approx(len(attained) / 16)
    assert len(cluster.all_requests()) == 16  # shed arrivals stay visible


# --------------------------------------------------------------------- #
# Heterogeneous replica specs
# --------------------------------------------------------------------- #
def test_replica_specs_build_mixed_fleet(big_registry):
    cluster = MultiReplicaSystem.build(
        "chameleon", registry=big_registry, seed=0,
        replica_specs=("a100-80gb", "a40-48gb"))
    assert len(cluster.replicas) == 2
    assert cluster.replicas[0].gpu.spec.name == "a100-80gb"
    assert cluster.replicas[1].gpu.spec.name == "a40-48gb"
    weights = cluster.capabilities()
    assert weights[0] > 1.0 > weights[1]
    assert sum(weights) == pytest.approx(2.0)


def test_replica_specs_accept_gpuspec_and_engine_config(big_registry):
    from repro.hardware.gpu import A100_80GB
    from repro.serving.engine import EngineConfig as EC

    cluster = MultiReplicaSystem.build(
        "chameleon", registry=big_registry, seed=0,
        replica_specs=(A100_80GB, EC(max_batch_size=7), None))
    assert cluster.replicas[0].gpu.spec.name == "a100-80gb"
    assert cluster.engines[1].config.max_batch_size == 7
    assert cluster.engines[2].config.max_batch_size == 256  # default kept


def test_replica_specs_dict_overrides(big_registry):
    from repro.serving.engine import EngineConfig as EC

    cluster = MultiReplicaSystem.build(
        "chameleon", registry=big_registry, seed=0,
        replica_specs=(
            {"gpu": "a100-80gb", "engine_config": EC(max_batch_size=9)},
            {},
        ))
    assert cluster.replicas[0].gpu.spec.name == "a100-80gb"
    assert cluster.engines[0].config.max_batch_size == 9
    assert cluster.replicas[1].gpu.spec.name == "a40-48gb"


def test_replica_specs_length_mismatch_raises(big_registry):
    with pytest.raises(ValueError):
        MultiReplicaSystem.build(
            "chameleon", n_replicas=3, registry=big_registry,
            replica_specs=("a100-80gb", "a40-48gb"))


def test_replica_specs_bad_entry_type_raises(big_registry):
    with pytest.raises(TypeError):
        MultiReplicaSystem.build(
            "chameleon", registry=big_registry, replica_specs=(42,))


def test_build_requires_count_or_specs():
    with pytest.raises(ValueError):
        MultiReplicaSystem.build("slora")


def test_homogeneous_fleet_weights_are_exactly_one(cluster):
    assert cluster.capabilities() == [1.0, 1.0, 1.0]


def test_mixed_fleet_runs_and_skews_completions(big_registry, dp_trace):
    cluster = MultiReplicaSystem.build(
        "chameleon", registry=big_registry, seed=0,
        replica_specs=("a100-80gb", "a100-80gb", "a40-48gb"))
    cluster.run_trace(dp_trace.fresh())
    assert all(r.finished for r in cluster.all_requests())
    counts = cluster.per_replica_counts()
    # The fast replicas absorb more of the trace than the slow one.
    assert min(counts[0], counts[1]) > counts[2]


# --------------------------------------------------------------------- #
# summary().extra edge cases: zero-serving replicas, cold estimators
# --------------------------------------------------------------------- #
def test_summary_with_zero_request_replica(big_registry):
    """A replica that served nothing must not poison the cluster math."""
    from repro.serving.admission import SloPolicy

    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=3, registry=big_registry,
        predictor_accuracy=None, seed=0,
        slo_policy=SloPolicy(ttft_deadline=100.0))
    # One request: least_loaded ties break to replica 0; 1 and 2 idle.
    cluster.run_trace([Request(request_id=0, arrival_time=0.0,
                               input_tokens=50, output_tokens=2)])
    counts = cluster.per_replica_counts()
    assert sorted(counts) == [0, 0, 1]
    extra = cluster.summary(duration=10.0).extra
    # max/mean with zero-count replicas: 1 / (1/3) = 3 exactly.
    assert extra["load_imbalance"] == pytest.approx(3.0)
    # No adapter lookups anywhere: the aggregate rate is NaN, not a crash.
    import math
    assert math.isnan(extra["aggregate_hit_rate"])
    assert math.isnan(cluster.mean_hit_rate())
    # Goodput: 1 deadline-compliant completion over the stated 10s window.
    assert extra["goodput_rps"] == pytest.approx(0.1)
    assert extra["cluster_slo_attainment"] == 1.0
    assert extra["p99_dispatch_queue_delay"] == 0.0


def test_summary_all_replicas_idle(big_registry):
    """An empty run (no requests at all) summarizes without dividing by 0."""
    import math

    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0)
    cluster.run_trace([])
    extra = cluster.summary().extra
    assert extra["per_replica_counts"] == [0, 0]
    assert math.isnan(extra["load_imbalance"])
    assert math.isnan(extra["aggregate_hit_rate"])


def test_estimated_queue_wait_cold_start(big_registry):
    """Before the first finish event the EWMA is unseeded: the estimator
    is optimistic (0.0) no matter how long the queue already is."""
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0,
        engine_config=EngineConfig(max_batch_size=1))
    dispatcher = cluster.cluster
    assert dispatcher.estimated_queue_wait() == 0.0
    # Saturate both replicas and pile a queue up before anything finishes.
    for i in range(6):
        cluster.sim.schedule_at(0.001 * i, dispatcher.dispatch,
                                Request(request_id=i, arrival_time=0.001 * i,
                                        input_tokens=400, output_tokens=40))
    cluster.sim.run(until=0.01)  # arrivals in, nothing finished yet
    assert dispatcher.queue_len() > 0
    assert dispatcher._finish_interval_ewma is None
    assert dispatcher.estimated_queue_wait() == 0.0
    # After the first inter-finish sample the estimate turns positive.
    cluster.sim.run()
    assert dispatcher._finish_interval_ewma is not None
    assert dispatcher.estimated_queue_wait() > 0.0
