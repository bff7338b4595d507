"""Unit tests: autoscaler control loop, observed-capability estimation, and
the replica lifecycle end to end through MultiReplicaSystem."""

import math

import pytest

from repro.serving.autoscaler import (
    AutoscaleConfig,
    ObservedCapabilityEstimator,
)
from repro.serving.engine import EngineConfig
from repro.serving.replica import MultiReplicaSystem, ReplicaState
from repro.sim.rng import RngStreams
from repro.workload.request import Request


def _burst(n, spacing=0.02, start=0.0, input_tokens=300, output_tokens=30):
    return [
        Request(request_id=i, arrival_time=start + i * spacing,
                input_tokens=input_tokens, output_tokens=output_tokens)
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# AutoscaleConfig validation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kwargs", [
    {"min_replicas": 0},
    {"min_replicas": 4, "max_replicas": 2},
    {"tick_interval": 0.0},
    {"provision_delay": -1.0},
    {"sustain_ticks": 0},
    {"idle_sustain_ticks": 0},
    {"cooldown": -1.0},
    {"scale_out_step": 0},
    {"mode": "clairvoyant"},
    {"forecast_window": 0.0},
    {"forecast_horizon": 0.0},
    {"forecast_cycle": -5.0},
    {"target_utilization": 0.0},
    {"target_utilization": 1.5},
])
def test_autoscale_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AutoscaleConfig(**kwargs)


def test_idle_sustain_defaults_to_sustain():
    config = AutoscaleConfig(sustain_ticks=3)
    assert config.effective_idle_sustain == 3
    assert AutoscaleConfig(sustain_ticks=2,
                           idle_sustain_ticks=7).effective_idle_sustain == 7


def test_forecast_horizon_defaults_to_full_cold_start():
    config = AutoscaleConfig(provision_delay=7.0, tick_interval=1.5)
    assert config.effective_forecast_horizon == pytest.approx(8.5)
    explicit = AutoscaleConfig(forecast_horizon=4.0, provision_delay=7.0)
    assert explicit.effective_forecast_horizon == 4.0


def test_forecaster_built_only_in_predictive_mode(big_registry):
    reactive = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=2))
    predictive = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=2,
                                  mode="predictive", forecast_window=12.0,
                                  forecast_cycle=60.0))
    assert reactive.autoscaler.forecaster is None
    assert reactive.autoscaler.predictive_scale_out_count == 0
    forecaster = predictive.autoscaler.forecaster
    assert forecaster is not None
    assert forecaster.window == 12.0
    assert forecaster.cycle == 60.0


# --------------------------------------------------------------------- #
# Static fleets are untouched by the refactor
# --------------------------------------------------------------------- #
def test_static_build_has_no_autoscaler_and_all_active(big_registry):
    cluster = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, registry=big_registry, seed=0)
    assert cluster.autoscaler is None
    assert cluster.cluster.capability_estimator is None  # "auto" -> spec
    assert all(h.state is ReplicaState.ACTIVE for h in cluster.cluster.handles)
    assert cluster.cluster.active_count() == 3
    assert cluster.cluster.fleet_size() == 3


def test_build_with_autoscale_defaults_replicas_to_min(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4))
    assert len(cluster.replicas) == 2
    assert cluster.autoscaler is not None
    # "auto" estimator resolves to observed with autoscaling on.
    assert cluster.cluster.capability_estimator is not None


def test_autoscale_rejects_fleet_outside_bounds(big_registry):
    with pytest.raises(ValueError):
        MultiReplicaSystem.build(
            "slora", n_replicas=6, registry=big_registry,
            predictor_accuracy=None,
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4))


def test_autoscale_requires_backpressure(big_registry):
    with pytest.raises(ValueError):
        MultiReplicaSystem.build(
            "slora", registry=big_registry, predictor_accuracy=None,
            backpressure=False,
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=2))


# --------------------------------------------------------------------- #
# Replica lifecycle through the real engine stack
# --------------------------------------------------------------------- #
def test_provision_replica_pays_cold_start(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=1, registry=big_registry,
        predictor_accuracy=None, seed=0,
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=3))
    handle = cluster.provision_replica(provision_delay=2.0)
    assert handle.state is ReplicaState.PROVISIONING
    assert len(cluster.replicas) == 2
    cluster.sim.run(until=1.5)
    assert handle.state is ReplicaState.PROVISIONING
    cluster.sim.run(until=2.5)
    assert handle.state is ReplicaState.ACTIVE
    assert handle.active_at == pytest.approx(2.0)
    assert handle.replica_seconds(10.0) == pytest.approx(10.0)


def test_provisioned_replica_derives_seed_from_index(big_registry):
    cluster = MultiReplicaSystem.build(
        "chameleon", n_replicas=2, registry=big_registry, seed=5,
        autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4))
    cluster.provision_replica()
    assert [replica.predictor.rng.bit_generator.state
            for replica in cluster.replicas] == [
        RngStreams(seed).get("predictor").bit_generator.state
        for seed in (5, 6, 7)]


def test_provision_without_factory_raises(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=1, registry=big_registry,
        predictor_accuracy=None, seed=0)
    cluster.factory = None
    with pytest.raises(RuntimeError):
        cluster.provision_replica()


def test_drain_finishes_inflight_work_then_retires(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0)
    requests = _burst(8)
    cluster.run_trace(requests, horizon=0.3)
    victim = cluster.cluster.handles[0]
    before = len(victim.engine.all_requests)
    assert victim.engine.in_flight_count() > 0
    cluster.cluster.drain_replica(0)
    assert victim.state is ReplicaState.DRAINING
    cluster.sim.run()
    # The drained replica finished everything it held, took nothing new,
    # and retired on its last finish; no request was lost.
    assert victim.state is ReplicaState.RETIRED
    assert len(victim.engine.all_requests) == before
    assert all(r.finished for r in cluster.all_requests())
    assert len(cluster.all_requests()) == len(requests)


def test_drain_idle_replica_retires_immediately(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0)
    handle = cluster.cluster.drain_replica(1)
    assert handle.state is ReplicaState.RETIRED
    # Idempotent on a retired replica.
    assert cluster.cluster.drain_replica(1).state is ReplicaState.RETIRED


def test_drain_cancels_cold_provisioning(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=1, registry=big_registry,
        predictor_accuracy=None, seed=0,
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=3))
    handle = cluster.provision_replica(provision_delay=5.0)
    cluster.cluster.drain_replica(handle.index)
    assert handle.state is ReplicaState.RETIRED
    cluster.sim.run(until=10.0)
    # The cancelled cold start never activates later.
    assert handle.state is ReplicaState.RETIRED
    assert cluster.cluster.active_count() == 1


def test_illegal_lifecycle_transition_raises(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=1, registry=big_registry,
        predictor_accuracy=None, seed=0)
    handle = cluster.cluster.handles[0]
    with pytest.raises(RuntimeError):
        handle.retire(0.0)  # ACTIVE -> RETIRED must pass through DRAINING


# --------------------------------------------------------------------- #
# The control loop end to end
# --------------------------------------------------------------------- #
def _overload_config(**overrides):
    defaults = dict(
        min_replicas=1, max_replicas=3, tick_interval=1.0,
        provision_delay=1.0, sustain_ticks=1, cooldown=2.0,
        queue_wait_threshold=0.5, idle_sustain_ticks=3,
    )
    defaults.update(overrides)
    return AutoscaleConfig(**defaults)


def _overloaded_cluster(big_registry, config, duration=40.0, rps=60.0):
    cluster = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        engine_config=EngineConfig(max_batch_size=8), autoscale=config)
    n = int(rps * duration)
    cluster.run_trace(_burst(n, spacing=1.0 / rps))
    return cluster


def test_scales_out_under_sustained_pressure(big_registry):
    cluster = _overloaded_cluster(big_registry, _overload_config())
    scaler = cluster.autoscaler
    assert scaler.scale_out_count > 0
    assert scaler.peak_fleet > 1
    assert scaler.peak_fleet <= 3
    out_events = [e for e in scaler.events if e["action"] == "scale_out"]
    assert out_events and all(e["fleet_size"] <= 3 for e in scaler.events)


def test_scale_out_respects_cooldown(big_registry):
    cluster = _overloaded_cluster(
        big_registry, _overload_config(cooldown=1000.0), duration=30.0)
    assert cluster.autoscaler.scale_out_count == 1


def test_never_exceeds_max_replicas(big_registry):
    cluster = _overloaded_cluster(
        big_registry, _overload_config(max_replicas=2, cooldown=0.0))
    assert cluster.autoscaler.peak_fleet <= 2
    assert len(cluster.replicas) <= 1 + cluster.autoscaler.scale_out_count * 2


def test_scales_in_during_idle_lull(big_registry):
    # A hard burst, then a long silent lull kept alive by one straggler:
    # the controller must scale out for the burst and back in for the lull.
    config = _overload_config(cooldown=1.0)
    cluster = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        engine_config=EngineConfig(max_batch_size=8), autoscale=config)
    requests = _burst(600, spacing=0.02)
    straggler = Request(request_id=len(requests), arrival_time=80.0,
                        input_tokens=50, output_tokens=4)
    cluster.run_trace(requests + [straggler])
    scaler = cluster.autoscaler
    assert scaler.scale_out_count > 0
    assert scaler.scale_in_count > 0
    # The lull tore the fleet back down to the floor.
    assert cluster.cluster.fleet_size() == 1
    assert all(r.finished for r in cluster.all_requests())


def test_summary_extra_accounts_scale_events(big_registry):
    cluster = _overloaded_cluster(big_registry, _overload_config())
    extra = cluster.summary(warmup=5.0, duration=40.0).extra
    assert extra["scale_out_events"] == cluster.autoscaler.scale_out_count
    assert extra["scale_in_events"] == cluster.autoscaler.scale_in_count
    assert extra["peak_fleet_size"] == cluster.autoscaler.peak_fleet
    assert len(extra["scale_events"]) == \
        extra["scale_out_events"] + extra["scale_in_events"]
    assert extra["replica_seconds"] == pytest.approx(
        cluster.cluster.replica_seconds(cluster.sim.now))
    assert extra["replica_seconds"] > 0
    assert extra["goodput_per_replica_second"] > 0
    # Elasticity bills less than peak-sized-everywhere.
    assert extra["replica_seconds"] <= \
        cluster.autoscaler.peak_fleet * cluster.sim.now


def test_predictive_mode_scales_out_within_bounds(big_registry):
    config = _overload_config(mode="predictive", forecast_window=5.0)
    cluster = _overloaded_cluster(big_registry, config)
    scaler = cluster.autoscaler
    assert scaler.scale_out_count > 0
    assert scaler.peak_fleet <= 3
    assert all(e["holding"] <= 3 for e in scaler.events)
    extra = cluster.summary(warmup=5.0, duration=40.0).extra
    assert extra["predictive_scale_out_events"] == \
        scaler.predictive_scale_out_count
    # Every forecast-driven event carries its diagnostics; reactive events
    # carry none (their records stay byte-identical across modes).
    for event in scaler.events:
        if event.get("reason") == "predictive":
            assert event["forecast_lower"] > 0
            assert event["forecast_upper"] >= event["forecast_rate"] >= \
                event["forecast_lower"]
            assert event["service_rate"] > 0
            assert event["target_replicas"] > 0
        else:
            assert "forecast_rate" not in event


def test_predictive_requires_service_rate_history(big_registry):
    # Before any finish has been observed there is no capacity unit to
    # divide a forecast by, so the predictive path must stay silent (the
    # reactive net owns cold starts): a flood of arrivals alone — requests
    # too long to finish within the run — never triggers a forecast-driven
    # event, however high the forecast rate.
    config = _overload_config(
        mode="predictive", forecast_horizon=0.5, queue_wait_threshold=None)
    cluster = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        engine_config=EngineConfig(max_batch_size=8), autoscale=config)
    requests = _burst(40, spacing=0.001, output_tokens=4000)
    cluster.run_trace(requests, horizon=3.0)
    scaler = cluster.autoscaler
    assert cluster.cluster.stats.finishes == 0  # nothing completed yet
    assert scaler.forecaster.observed_rate() > 5.0  # demand clearly visible
    assert scaler.predictive_scale_out_count == 0


def test_predictive_scale_out_restarts_idle_countdown(big_registry):
    # A forecast-driven scale-out typically fires in a lull; the idle
    # streak must restart so the very next tick's reactive scale-in cannot
    # cancel the replicas just pre-provisioned for the predicted burst.
    config = _overload_config(mode="predictive", forecast_window=5.0,
                              idle_sustain_ticks=2)
    cluster = _overloaded_cluster(big_registry, config)
    scaler = cluster.autoscaler
    out_times = {e["time"] for e in scaler.events
                 if e.get("reason") == "predictive"}
    in_events = [e for e in scaler.events if e["action"] == "scale_in"]
    # No scale-in within idle_sustain ticks of a forecast-driven scale-out.
    for event in in_events:
        assert all(event["time"] - t >= 2 * config.tick_interval
                   for t in out_times if t < event["time"])


def test_predictive_fires_from_an_at_floor_idle_lull(big_registry):
    # Regression: an idle fleet pinned at min_replicas takes the scale-in
    # branch every tick; the attempt no-ops at the floor and must NOT
    # count as "this tick already scaled" — that would suppress predictive
    # evaluation during exactly the lull pre-provisioning exists for.
    # Bursts 1 and 2 teach the seasonal histogram (two cycles: enough for
    # the phase band to carry confidence) and the capacity unit; each lull
    # parks the fleet back at the floor; the forecast for burst 3 must
    # provision ahead from inside the second at-floor lull.
    config = AutoscaleConfig(
        min_replicas=1, max_replicas=4, tick_interval=1.0,
        provision_delay=2.0, cooldown=2.0, sustain_ticks=1,
        queue_wait_threshold=0.5, idle_sustain_ticks=2,
        mode="predictive", forecast_window=8.0, forecast_cycle=30.0)
    cluster = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        engine_config=EngineConfig(max_batch_size=8), autoscale=config)
    requests = []
    for cycle_start in (0.0, 30.0, 60.0):
        burst = _burst(300, spacing=1 / 30, start=cycle_start)   # 10s @ 30 RPS
        lull = _burst(18, spacing=1.0, start=cycle_start + 10.0)  # 18s @ 1 RPS
        for request in burst + lull:
            request.request_id = len(requests)
            requests.append(request)
    cluster.run_trace(requests)
    scaler = cluster.autoscaler
    lull_predictive = [
        e for e in scaler.events
        if e.get("reason") == "predictive" and 42.0 <= e["time"] < 60.0]
    assert lull_predictive, (
        "no forecast-driven scale-out fired from the at-floor lull ahead "
        "of burst 3: "
        f"events={[(e['time'], e['action']) for e in scaler.events]}")


def test_autoscaler_ticks_stop_when_work_drains(big_registry):
    cluster = _overloaded_cluster(big_registry, _overload_config(),
                                  duration=10.0)
    # The run ended: heap is empty (ticks did not self-reschedule forever).
    assert cluster.sim.pending_events == 0
    assert cluster.autoscaler.ticks > 0


# --------------------------------------------------------------------- #
# ObservedCapabilityEstimator
# --------------------------------------------------------------------- #
def test_estimator_validates_arguments():
    est = ObservedCapabilityEstimator()
    with pytest.raises(ValueError):
        est.register(0, 0.0)


def test_estimator_cold_start_uses_raw_priors():
    est = ObservedCapabilityEstimator()
    est.register(0, 2.0)
    est.register(1, 1.0)
    weights = est.weights([0, 1])
    assert weights[0] == pytest.approx(2.0)
    assert weights[1] == pytest.approx(1.0)
    assert est.observed_rate(0) is None


def test_estimator_tracks_observed_rates():
    est = ObservedCapabilityEstimator()
    est.register(0, 1.0)
    est.register(1, 1.0)
    # Replica 0 finishes every 0.1s, replica 1 every 0.4s.
    for k in range(1, 41):
        est.observe_finish(0, k * 0.1)
    for k in range(1, 11):
        est.observe_finish(1, k * 0.4)
    assert est.observed_rate(0) == pytest.approx(10.0, rel=1e-6)
    assert est.observed_rate(1) == pytest.approx(2.5, rel=1e-6)
    weights = est.weights([0, 1])
    assert weights[0] / weights[1] == pytest.approx(4.0, rel=1e-6)


def test_estimator_batches_same_timestamp_finishes():
    est = ObservedCapabilityEstimator()
    est.register(0, 1.0)
    # 4 finishes land together at t=1, the next drain event at t=2: the
    # per-slot rate is 4 finishes over 1s, not a zero-length interval.
    for _ in range(4):
        est.observe_finish(0, 1.0)
    est.observe_finish(0, 2.0)
    assert est.observed_rate(0) == pytest.approx(4.0)


def test_estimator_weights_a_sample_by_its_gap():
    est = ObservedCapabilityEstimator()
    est.register(0, 1.0)
    for now in (1.0, 2.0):
        est.observe_finish(0, now)        # first sample: 1 finish/s
    est.observe_finish(0, 4.0)            # 2 s gap: 0.5 finishes/s
    weight = 1.0 - math.exp(-2.0 / 20.0)  # CAPABILITY_TAU = 20 s
    assert est.observed_rate(0) == pytest.approx(
        (1.0 - weight) * 1.0 + weight * 0.5, rel=1e-12)


def test_estimator_idle_closes_measurement_window():
    est = ObservedCapabilityEstimator()
    est.register(0, 1.0)
    est.observe_finish(0, 1.0)
    est.observe_finish(0, 1.1, idle=True)  # drained: engine goes idle
    rate_before = est.observed_rate(0)
    # A finish an hour later must not count the idle gap as service time.
    est.observe_finish(0, 3600.0)
    est.observe_finish(0, 3600.1)
    assert est.observed_rate(0) == pytest.approx(rate_before, rel=0.2)


def test_estimator_calibrates_prior_for_cold_replica():
    est = ObservedCapabilityEstimator()
    est.register(0, 4.0)   # measured below
    est.register(1, 2.0)   # cold: half the spec capability of replica 0
    for k in range(1, 21):
        est.observe_finish(0, k * 0.1)  # 10 finishes/s
    weights = est.weights([0, 1])
    # Fleet calibration: 10 rate units per 4 prior units -> the cold
    # replica's expected rate is 2 * (10 / 4) = 5.
    assert weights[0] == pytest.approx(10.0, rel=1e-6)
    assert weights[1] == pytest.approx(5.0, rel=1e-6)


def test_estimator_blends_toward_prior_until_min_samples():
    est = ObservedCapabilityEstimator()
    est.register(0, 1.0)
    est.register(1, 1.0)
    for k in range(1, 21):
        est.observe_finish(0, k * 0.1)   # 19 samples at 10 finishes/s
    for k in range(1, 6):
        est.observe_finish(1, k * 0.5)   # 4 samples at 2 finishes/s
    weights = est.weights([0, 1])
    # Calibration (10 + 2) / (1 + 1) = 6 rate units per prior unit.
    # Replica 1 is half way to CAPABILITY_MIN_SAMPLES = 8: its weight is
    # 4/8 of its rate plus 4/8 of its calibrated prior.
    assert weights[0] == pytest.approx(10.0, rel=1e-6)
    assert weights[1] == pytest.approx(0.5 * 2.0 + 0.5 * 6.0, rel=1e-6)


def test_estimator_feeds_cluster_weights(big_registry):
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0, capability_estimator="observed")
    assert cluster.cluster.capability_estimator is not None
    cluster.run_trace(_burst(60, spacing=0.05))
    weights = cluster.capabilities()
    assert sum(weights) == pytest.approx(2.0)  # normalized over active set


def test_explicit_estimator_instance_is_used(big_registry):
    est = ObservedCapabilityEstimator()
    cluster = MultiReplicaSystem.build(
        "slora", n_replicas=2, registry=big_registry,
        predictor_accuracy=None, seed=0, capability_estimator=est)
    assert cluster.cluster.capability_estimator is est


def test_estimator_converges_after_mid_run_degradation():
    """The contract the ``degrade`` fault relies on: a step change in a
    replica's service rate converges the time-weighted EWMA within a
    bounded number of finish events.

    With tau=20s and finishes every 2s, each sample carries weight
    ``1 - exp(-0.1)`` ~ 0.095, so the error to the new rate shrinks by
    ~0.905 per event: 30 events cut a 2x rate step to well under 10%
    residual.  If this bound regresses, degraded replicas keep their old
    routing weight long past the fault and drag the tail.
    """
    est = ObservedCapabilityEstimator()
    est.register(0, 1.0)
    # Healthy phase: one finish per second (rate 1.0), long enough for the
    # EWMA to settle on it.
    now = 0.0
    for _ in range(60):
        now += 1.0
        est.observe_finish(0, now)
    assert est.observed_rate(0) == pytest.approx(1.0, rel=1e-6)
    # Degradation: the replica halves its speed (finish every 2s, rate 0.5).
    within = None
    for event in range(1, 31):
        now += 2.0
        est.observe_finish(0, now)
        if within is None and abs(est.observed_rate(0) - 0.5) <= 0.05:
            within = event
    assert within is not None and within <= 30, \
        f"EWMA still {est.observed_rate(0):.3f} after 30 degraded finishes"
    # And it keeps tracking: the estimate never undershoots the true rate.
    assert est.observed_rate(0) >= 0.5
