"""Fault subsystem: schedules, injection, migration, self-healing.

Covers the new fault model end to end against the *real* engine stack
(crash evacuation through ``ServingEngine.fail``, degrade multipliers
through the cost model, stalls through the dispatch path) plus the
deterministic plumbing: schedule parsing, seeded random failures, and the
conservation law ``completed + shed + lost + still-pending == submitted``
that crash handling must never break.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.serving.autoscaler import AutoscaleConfig
from repro.serving.engine import EngineConfig
from repro.serving.replica import MultiReplicaSystem, ReplicaState
from repro.sim.rng import RngStreams
from repro.workload.request import Request


# --------------------------------------------------------------------- #
# FaultSchedule parsing and validation
# --------------------------------------------------------------------- #
def test_schedule_parse_roundtrip():
    schedule = FaultSchedule.parse(
        "110:crash:1, 60:degrade:0:0.5, 90:recover:0, 120:stall:2:5")
    kinds = [(e.time, e.kind, e.replica) for e in schedule]
    # Entries come out sorted by time.
    assert kinds == [(60.0, "degrade", 0), (90.0, "recover", 0),
                     (110.0, "crash", 1), (120.0, "stall", 2)]
    assert schedule.events[0].magnitude == 0.5
    assert schedule.events[3].duration == 5.0


def test_schedule_parse_accepts_transient_stall_alias():
    schedule = FaultSchedule.parse("10:transient_stall:0:2.5")
    assert schedule.events[0].kind == "stall"
    assert schedule.events[0].duration == 2.5


@pytest.mark.parametrize("bad", [
    "", "nonsense", "10:crash", "x:crash:0", "10:crash:zero",
    "10:explode:0", "10:crash:0:1.5", "10:stall:0:x",
])
def test_schedule_parse_rejects_bad_entries(bad):
    with pytest.raises(ValueError):
        FaultSchedule.parse(bad)


@pytest.mark.parametrize("kwargs", [
    dict(time=-1.0, kind="crash", replica=0),
    dict(time=1.0, kind="meteor", replica=0),
    dict(time=1.0, kind="crash", replica=-1),
    dict(time=1.0, kind="degrade", replica=0, magnitude=0.0),
    dict(time=1.0, kind="degrade", replica=0, magnitude=1.5),
    dict(time=1.0, kind="stall", replica=0, duration=0.0),
])
def test_fault_event_validation(kwargs):
    with pytest.raises(ValueError):
        FaultEvent(**kwargs)


def test_injector_validation(big_registry):
    cluster = _build(big_registry)
    with pytest.raises(ValueError, match="mttf"):
        FaultInjector(cluster.cluster, mttf=-1.0,
                      rng=RngStreams(0).get("faults"))
    with pytest.raises(ValueError, match="mttr needs mttf"):
        FaultInjector(cluster.cluster, mttr=5.0)
    with pytest.raises(ValueError, match="need an rng"):
        FaultInjector(cluster.cluster, mttf=10.0)


# --------------------------------------------------------------------- #
# Crash + migration through the real engine stack
# --------------------------------------------------------------------- #
def _build(big_registry, *, n_replicas=2, autoscale=None, **kwargs):
    return MultiReplicaSystem.build(
        "slora", n_replicas=n_replicas, registry=big_registry,
        predictor_accuracy=None, seed=3, autoscale=autoscale,
        engine_config=EngineConfig(max_batch_size=4), **kwargs)


def _steady(rate_rps, duration, start_id=0):
    spacing = 1.0 / rate_rps
    return [
        Request(request_id=start_id + i, arrival_time=i * spacing,
                input_tokens=200, output_tokens=20)
        for i in range(int(duration * rate_rps))
    ]


def _conservation(cluster, submitted):
    requests = cluster.all_requests()
    ids = sorted(r.request_id for r in requests)
    assert ids == sorted(r.request_id for r in submitted), \
        "request lost from or duplicated in accounting"
    completed = sum(1 for r in requests if r.finished)
    shed = sum(1 for r in requests if r.shed)
    lost = sum(1 for r in requests if r.lost)
    pending = sum(1 for r in requests
                  if not (r.finished or r.shed or r.lost))
    assert completed + shed + lost + pending == len(submitted)
    return completed, shed, lost, pending


def test_crash_migrates_work_and_conserves_requests(big_registry):
    trace = _steady(8.0, 20.0)
    cluster = _build(big_registry, fault_schedule="5:crash:1")
    cluster.run_trace(trace)
    handle = cluster.cluster.handles[1]
    assert handle.state is ReplicaState.FAILED
    assert handle.failed_at == 5.0
    assert cluster.cluster.stats.failures == 1
    assert cluster.cluster.stats.migrations > 0
    completed, shed, lost, pending = _conservation(cluster, trace)
    # Client-retry migration strands nothing and the run drains fully.
    assert lost == 0 and pending == 0
    assert completed == len(trace) - shed
    # Migrated requests carry their retry timelines.
    migrated = [r for r in cluster.all_requests() if r.retry_count > 0]
    assert migrated
    assert all(r.migrated_at == [5.0] for r in migrated)
    # The dead engine never finishes anything after the crash.
    dead = cluster.engines[1]
    assert dead.failed
    assert all(r.finish_time is None or r.finish_time <= 5.0
               for r in dead.all_requests)
    # Availability/migration accounting surfaces in the summary.
    extra = cluster.summary(duration=20.0).extra
    assert extra["cluster_failures"] == 1
    assert extra["cluster_lost"] == 0
    assert extra["availability"] == 1.0
    assert extra["cluster_migrations"] == len(cluster.cluster.migration_log)
    assert set(extra["retry_timelines"]) == \
        {r.request_id for r in migrated}


def test_crash_without_migration_strands_work(big_registry):
    trace = _steady(8.0, 20.0)
    cluster = _build(big_registry, fault_schedule="5:crash:1",
                     fault_migrate=False)
    cluster.run_trace(trace)
    completed, shed, lost, pending = _conservation(cluster, trace)
    assert lost > 0 and pending == 0
    assert cluster.cluster.stats.migrations == 0
    assert cluster.cluster.stats.lost == lost
    # Lost requests keep their identity and stay visible for accounting.
    assert all(not r.finished for r in cluster.all_requests() if r.lost)
    extra = cluster.summary(duration=20.0).extra
    assert extra["availability"] < 1.0
    assert extra["cluster_lost"] == lost


def test_same_seed_fault_runs_are_deterministic(big_registry):
    def timeline(cluster):
        return [(r.request_id, r.finish_time, r.retry_count, r.lost,
                 r.shed) for r in sorted(cluster.all_requests(),
                                         key=lambda r: r.request_id)]

    runs = []
    for _ in range(2):
        cluster = _build(big_registry, mttf=6.0, n_replicas=3)
        cluster.run_trace(_steady(8.0, 25.0))
        runs.append((timeline(cluster), list(cluster.fault_injector.log)))
    assert runs[0] == runs[1]
    assert runs[0][1], "the MTTF process never fired in 25s at mean 6s"


def test_fault_rng_does_not_perturb_workload_stream(big_registry):
    # The fault stream is named: drawing faults must not consume the trace
    # stream, so two runs differing only in MTTF see identical arrivals.
    streams = RngStreams(7)
    a = streams.get("trace").random(4).tolist()
    streams.get("faults").random(10)
    b = streams.get("trace").random(4).tolist()
    fresh = RngStreams(7).get("trace").random(8).tolist()
    assert a + b == fresh


# --------------------------------------------------------------------- #
# Degrade: the estimator convergence contract
# --------------------------------------------------------------------- #
def test_degrade_shifts_observed_capability_weights(big_registry):
    # Replica 1 drops to a quarter speed at t=10s.  The observed-rate
    # estimator must converge toward the new rate and shift routing weight
    # to the healthy replica; spec weights cannot see the fault at all.
    cluster = _build(big_registry, capability_estimator="observed",
                     fault_schedule="10:degrade:1:0.25")
    cluster.run_trace(_steady(8.0, 60.0))
    assert cluster.engines[1]._rate_multiplier == 0.25
    weights = cluster.capabilities()
    assert weights[0] > 1.0 > weights[1]
    counts = cluster.per_replica_counts()
    assert counts[0] > counts[1]


def test_recover_restores_rate_multiplier(big_registry):
    cluster = _build(big_registry,
                     fault_schedule="10:degrade:1:0.5,20:recover:1")
    cluster.run_trace(_steady(4.0, 30.0))
    assert cluster.engines[1]._rate_multiplier == 1.0
    assert cluster.fault_injector.degrades == 1
    assert cluster.fault_injector.recovers == 1


def test_degrade_on_dead_replica_is_skipped(big_registry):
    # A degrade scheduled after the target crashed must not touch the dead
    # engine or count as a fired fault — mirrored on the crash/stall paths.
    cluster = _build(big_registry,
                     fault_schedule="5:crash:1,10:degrade:1:0.5")
    cluster.run_trace(_steady(8.0, 20.0))
    assert cluster.engines[1]._rate_multiplier == 1.0
    assert cluster.fault_injector.degrades == 0
    skipped = [f for f in cluster.fault_injector.log
               if f["kind"] == "degrade"]
    assert skipped and skipped[0]["skipped"] == "already gone"


def test_unit_rate_multiplier_is_bit_identical(big_registry):
    # degrade to 1.0 exercises the multiplier code path without changing
    # any iteration cost: timelines must match a fault-free run exactly.
    baseline = _build(big_registry)
    baseline.run_trace(_steady(8.0, 15.0))
    multiplied = _build(big_registry, fault_schedule="1:degrade:0:1.0")
    multiplied.run_trace(_steady(8.0, 15.0))
    assert [(r.request_id, r.finish_time) for r in baseline.all_requests()] \
        == [(r.request_id, r.finish_time) for r in multiplied.all_requests()]


# --------------------------------------------------------------------- #
# Transient stalls
# --------------------------------------------------------------------- #
def test_stall_blocks_dispatch_then_recovers(big_registry):
    trace = _steady(8.0, 30.0)
    cluster = _build(big_registry, fault_schedule="5:stall:1:10")
    cluster.run_trace(trace)
    handle = cluster.cluster.handles[1]
    assert handle.state is ReplicaState.ACTIVE  # stalls are not crashes
    assert not handle.stalled
    assert cluster.cluster.stats.stalls == 1
    # Nothing was dispatched to the stalled replica inside its window.
    stalled_window = [
        r for r in cluster.engines[1].all_requests
        if r.enqueue_time is not None and 5.0 < r.enqueue_time < 15.0]
    assert stalled_window == []
    # The replica kept finishing its in-flight work and rejoined after.
    rejoined = [
        r for r in cluster.engines[1].all_requests
        if r.enqueue_time is not None and r.enqueue_time >= 15.0]
    assert rejoined
    completed, shed, lost, pending = _conservation(cluster, trace)
    assert lost == 0 and pending == 0


def test_overlapping_stalls_extend_the_window(big_registry):
    cluster = _build(big_registry,
                     fault_schedule="5:stall:1:4,7:stall:1:10")
    cluster.run_trace(_steady(8.0, 30.0))
    engine_1 = cluster.engines[1]
    # The first stall's timer (t=9) must not end the longer second stall
    # (t=17): no submissions land in [5, 17).
    window = [r for r in engine_1.all_requests
              if r.enqueue_time is not None and 5.0 < r.enqueue_time < 17.0]
    assert window == []
    assert cluster.cluster.handles[1].stalled is False


def test_all_replicas_stalled_queues_arrivals(big_registry):
    cluster = _build(big_registry, fault_schedule="2:stall:0:5,2:stall:1:5")
    cluster.run_trace(_steady(8.0, 20.0))
    # Arrivals during the fleet-wide stall waited at the cluster.
    delayed = [r for r in cluster.all_requests()
               if r.dispatch_queue_delay > 0]
    assert delayed
    completed, shed, lost, pending = _conservation(
        cluster, cluster.all_requests())
    assert lost == 0 and pending == 0


# --------------------------------------------------------------------- #
# Self-healing autoscaler
# --------------------------------------------------------------------- #
def _autoscale(min_replicas=2, max_replicas=4, **overrides):
    defaults = dict(
        min_replicas=min_replicas, max_replicas=max_replicas,
        tick_interval=1.0, provision_delay=2.0, cooldown=30.0,
        sustain_ticks=3, idle_sustain_ticks=50, self_heal=True)
    defaults.update(overrides)
    return AutoscaleConfig(**defaults)


def test_self_heal_replaces_crashed_replica_outside_cooldown(big_registry):
    cluster = _build(big_registry, autoscale=_autoscale(),
                     fault_schedule="10:crash:0")
    cluster.run_trace(_steady(8.0, 40.0))
    scaler = cluster.autoscaler
    heals = [e for e in scaler.events if e["action"] == "self_heal"]
    assert len(heals) == 1 and scaler.self_heal_count == 1
    # Detection within one tick of the crash (a tick sharing the crash
    # timestamp already sees the FAILED handle); the 30s demand cooldown
    # never applies.
    assert 10.0 <= heals[0]["time"] <= 11.0
    assert heals[0]["reason"] == "failure_replacement"
    assert heals[0]["failures"] == 1
    # The replacement replica actually joined and served.
    replacement = cluster.cluster.handles[heals[0]["replicas"][0]]
    assert replacement.is_active
    assert any(r.finished for r in
               cluster.engines[replacement.index].all_requests)
    # Fleet-level accounting: the failed GPU stopped billing at the crash.
    assert cluster.cluster.handles[0].replica_seconds(cluster.sim.now) == 10.0
    extra = cluster.summary(duration=40.0).extra
    assert extra["self_heal_events"] == 1


def test_self_heal_respects_max_replicas(big_registry):
    cluster = _build(big_registry,
                     autoscale=_autoscale(min_replicas=2, max_replicas=2),
                     fault_schedule="10:crash:0")
    cluster.run_trace(_steady(8.0, 30.0))
    # Holding is at the ceiling even after the crash frees a slot: the
    # replacement is allowed (failed replicas hold no GPU)...
    assert cluster.autoscaler.self_heal_count == 1
    assert cluster.cluster.holding_count() <= 2


def test_self_heal_disabled_leaves_fleet_short(big_registry):
    cluster = _build(big_registry,
                     autoscale=_autoscale(self_heal=False),
                     fault_schedule="10:crash:0")
    cluster.run_trace(_steady(8.0, 30.0))
    assert cluster.autoscaler.self_heal_count == 0
    assert all(e["action"] != "self_heal"
               for e in cluster.autoscaler.events)
    assert cluster.cluster.active_count() == 1
    assert "self_heal_events" in cluster.summary(duration=30.0).extra
    assert cluster.summary(duration=30.0).extra["self_heal_events"] == 0


# --------------------------------------------------------------------- #
# Drain migration (the voluntary half of work migration)
# --------------------------------------------------------------------- #
def test_drain_with_migration_redispatches_unstarted_work(big_registry):
    # A burst at t=0 fills both engines: the first submission kicks an
    # iteration immediately, so each engine holds one *started* request and
    # a local queue of unstarted ones — exactly the split drain migration
    # must respect.
    cluster = _build(big_registry)
    trace = _steady(1.0, 30.0)
    for request in trace:
        request.arrival_time = 0.0
        cluster.cluster.dispatch(request)
    queued_locally = cluster.engines[1].scheduler.queue_len()
    assert queued_locally > 0
    cluster.cluster.drain_replica(1, migrate=True)
    assert cluster.cluster.stats.migrations >= queued_locally
    cluster.sim.run()
    handle = cluster.cluster.handles[1]
    assert handle.is_retired
    completed, shed, lost, pending = _conservation(cluster, trace)
    assert lost == 0 and pending == 0 and completed == len(trace)
    # The drained replica finished only the work that had already started
    # at drain time; everything else completed elsewhere.
    assert sum(1 for r in cluster.engines[1].all_requests if r.finished) \
        < len(trace)
    assert all(r.finished for r in cluster.engines[1].all_requests)
