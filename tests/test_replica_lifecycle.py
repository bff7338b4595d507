"""Lifecycle invariants of the elastic cluster under random interleavings.

Hypothesis drives random sequences of arrivals, finishes, scale-outs (with
and without cold-start delays), scale-ins and clock advances against the
real :class:`DataParallelCluster` + :class:`Simulator`, for every dispatch
policy, and asserts after every operation:

* **No dispatch to non-ACTIVE replicas** — the fake engine asserts its
  handle is ACTIVE and un-stalled on every ``submit`` (provisioning
  replicas have not joined; draining/retired ones accept nothing new).
* **Request conservation** — every arrival is in exactly one place
  (submitted to exactly one engine, pending at the cluster, or shed), with
  no duplicates, through arbitrary scale events and scale-in drains.
* **Drain completion** — a DRAINING replica still holds in-flight work;
  the moment it drains it is RETIRED (never stuck), and its previously
  submitted requests remain accounted.
* **Lifecycle sanity** — states only move along legal edges (the handle
  itself enforces this), cold replicas cancelled by a scale-in never
  activate later, and capability weights stay normalized over the active
  set.

With fault ops in the mix (crashes with/without migration, transient
stalls) the conservation law grows a term: every arrival is submitted,
pending, shed *or lost* — ``completed + shed + lost == submitted`` at the
end of a drained run — dispatch never targets FAILED or stalled replicas,
and the offer accounting closes as ``arrivals == fresh arrivals +
migrations``.  Fault-free op sequences exercise exactly the historic
assertions.
"""

import numpy as np
import pytest
from fake_engine import FakeEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import DataParallelCluster
from repro.serving.admission import SloPolicy
from repro.serving.autoscaler import Autoscaler, AutoscaleConfig
from repro.sim.simulator import Simulator
from repro.workload.request import Request


def _engine(capacity, sim, cluster=None):
    """A fake that asserts the lifecycle dispatch contract: every submit
    lands on an ACTIVE, un-stalled replica below its batch cap."""
    engine = FakeEngine(max_batch_size=capacity, sim=sim, resident={0, 2})
    engine.cluster = cluster
    return engine


def _ops(faults: bool = False):
    """Random op sequences over the elastic cluster."""
    kinds = ["arrive", "finish", "scale_out", "scale_in", "advance"]
    if faults:
        kinds += ["fail", "stall"]
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1, max_size=50,
    )


def _run_lifecycle(policy, ops, capacity, slo_policy=None):
    sim = Simulator()
    engines = [_engine(capacity, sim) for _ in range(2)]
    cluster = DataParallelCluster(
        engines, policy=policy, slo_policy=slo_policy, sim=sim,
        rng=np.random.default_rng(7))
    for engine in engines:
        engine.cluster = cluster
    arrived: list = []
    for kind, draw in ops:
        if kind == "arrive":
            request = Request(
                request_id=len(arrived), arrival_time=sim.now,
                input_tokens=10, output_tokens=2,
                adapter_id=draw if draw < 4 else None)
            arrived.append(request)
            cluster.dispatch(request)
        elif kind == "finish":
            busy = [e for e in cluster.engines if e.in_flight]
            if busy:
                busy[draw % len(busy)].finish_one()
        elif kind == "scale_out":
            if cluster.fleet_size() < 5:
                delay = (draw % 3) * 0.4  # 0, 0.4 or 0.8s cold start
                cluster.add_replica(_engine(capacity, sim, cluster),
                                    provision_delay=delay)
        elif kind == "scale_in":
            candidates = [h for h in cluster.handles if h.in_fleet]
            if len(candidates) > 1:  # keep one replica on its way in
                cluster.drain_replica(candidates[draw % len(candidates)].index)
        elif kind == "fail":
            candidates = [h for h in cluster.handles
                          if not (h.is_retired or h.is_failed)]
            if candidates:
                # Crash with both recovery models the fault layer offers:
                # full migration and total no-recovery.
                cluster.fail_replica(
                    candidates[draw % len(candidates)].index,
                    migrate=draw % 3 != 0)
        elif kind == "stall":
            active = [h for h in cluster.handles if h.is_active]
            if active:
                cluster.stall_replica(active[draw % len(active)].index,
                                      0.2 + 0.1 * (draw % 4))
        else:  # advance: fire pending cold-start and stall timers
            sim.run(until=sim.now + 0.5)

        # --- invariants, after every operation -------------------------- #
        # Lost requests stay in their dead engine's ``submitted`` (the
        # all_requests analog), so the identity conservation is unchanged;
        # the lost set is additionally flagged, once per stranded request.
        in_engines = [r.request_id for e in cluster.engines for r in e.submitted]
        pending = [r.request_id for r in cluster.pending_requests()]
        shed = [r.request_id for r in cluster.shed_requests()]
        assert len(in_engines) == len(set(in_engines)), "duplicated dispatch"
        assert sorted(in_engines + pending + shed) == \
            [r.request_id for r in arrived], "request lost or duplicated"
        assert sum(r.lost for e in cluster.engines for r in e.submitted) \
            == cluster.stats.lost
        # Offer accounting: every offer (fresh arrival or migration
        # re-offer) ends dispatched, queued or shed — exactly once.
        assert cluster.stats.arrivals == \
            len(arrived) + cluster.stats.migrations
        assert cluster.stats.dispatched + cluster.queue_len() \
            + cluster.stats.shed == cluster.stats.arrivals
        for handle in cluster.handles:
            if handle.is_draining:
                assert handle.in_flight() > 0, \
                    "idle DRAINING replica not retired"
            if handle.is_retired:
                assert handle.retired_at is not None
            if handle.is_failed:
                assert handle.failed_at is not None
                assert handle.in_flight() == 0, \
                    "FAILED replica still holds in-flight work"
        # Weights stay normalized over the active set (mean 1.0) and every
        # non-active replica keeps the neutral weight.
        active = cluster.active_indices()
        weights = cluster.capability_weights()
        if active:
            assert sum(weights[i] for i in active) / len(active) == \
                pytest.approx(1.0)
        for i, handle in enumerate(cluster.handles):
            if not handle.is_active:
                assert weights[i] == 1.0
    # Drain everything that can still run: activate pending cold starts,
    # then finish all in-flight work.
    sim.run()
    for _ in range(10_000):
        busy = [e for e in cluster.engines if e.in_flight]
        if not busy:
            break
        busy[0].finish_one()
    # Every draining replica retired once empty; nothing was dropped.
    for handle in cluster.handles:
        assert not handle.is_draining
    in_engines = [r.request_id for e in cluster.engines for r in e.submitted]
    pending = [r.request_id for r in cluster.pending_requests()]
    shed = [r.request_id for r in cluster.shed_requests()]
    assert sorted(in_engines + pending + shed) == \
        [r.request_id for r in arrived]
    # Terminal conservation with faults in play: every arrival either
    # completed, was shed, was stranded by a crash, or is still pending
    # (possible only when the whole fleet died under it).
    finished = [r.request_id for e in cluster.engines for r in e.finished]
    lost = [r.request_id for e in cluster.engines for r in e.submitted
            if r.lost]
    assert sorted(finished + shed + lost + pending) == \
        [r.request_id for r in arrived]
    return cluster


@pytest.mark.parametrize("policy", DataParallelCluster.POLICIES)
@given(ops=_ops(), capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_lifecycle_interleavings_conserve_requests(policy, ops, capacity):
    _run_lifecycle(policy, ops, capacity)


@pytest.mark.parametrize("mode", SloPolicy.MODES)
@given(ops=_ops(),
       policy=st.sampled_from(DataParallelCluster.POLICIES),
       deadline=st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=15, deadline=None)
def test_lifecycle_interleavings_with_slo(mode, ops, policy, deadline):
    slo_policy = SloPolicy(ttft_deadline=deadline, mode=mode)
    cluster = _run_lifecycle(policy, ops, capacity=1, slo_policy=slo_policy)
    assert all(r.shed for r in cluster.shed_requests())


@pytest.mark.parametrize("policy", DataParallelCluster.POLICIES)
@given(ops=_ops(faults=True), capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_fault_interleavings_conserve_requests(policy, ops, capacity):
    """Crashes (all three recovery models) and transient stalls woven into
    arbitrary scale/arrival/finish interleavings: conservation now reads
    ``completed + shed + lost (+ pending on a dead fleet) == submitted``,
    and no dispatch ever targets a FAILED or stalled replica."""
    _run_lifecycle(policy, ops, capacity)


@given(ops=_ops(faults=True),
       policy=st.sampled_from(DataParallelCluster.POLICIES),
       deadline=st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=15, deadline=None)
def test_fault_interleavings_with_slo_shed(ops, policy, deadline):
    # Migrated re-offers go through SLO admission like fresh arrivals: a
    # re-offer past the knee is shed, and the shed set stays consistent.
    slo_policy = SloPolicy(ttft_deadline=deadline, mode="shed")
    cluster = _run_lifecycle(policy, ops, capacity=1, slo_policy=slo_policy)
    assert all(r.shed for r in cluster.shed_requests())


# --------------------------------------------------------------------- #
# Autoscaled interleavings: the control loop (reactive and predictive)
# drives every scale event itself — bounds, cooldowns and conservation
# must hold through arbitrary arrival/finish/advance interleavings.
# --------------------------------------------------------------------- #
def _autoscale_ops():
    return st.lists(
        st.tuples(
            st.sampled_from(["arrive", "burst", "finish", "advance"]),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=5, max_size=40,
    )


def _assert_autoscale_invariants(cluster, scaler, config, arrived):
    # Fleet bounds: the floor counts provisioning/active replicas,
    # the ceiling everything still holding a GPU (draining included).
    assert cluster.fleet_size() >= config.min_replicas
    assert cluster.holding_count() <= config.max_replicas
    # Request conservation through forecast-driven scale events.
    in_engines = [r.request_id for e in cluster.engines for r in e.submitted]
    pending = [r.request_id for r in cluster.pending_requests()]
    assert len(in_engines) == len(set(in_engines))
    assert sorted(in_engines + pending) == [r.request_id for r in arrived]
    # Cooldowns: consecutive same-direction events are spaced >= cooldown
    # (predictive and reactive scale-outs share one cooldown clock).
    for action in ("scale_out", "scale_in"):
        times = [e["time"] for e in scaler.events if e["action"] == action]
        assert all(b - a >= config.cooldown - 1e-9
                   for a, b in zip(times, times[1:]))


def test_throughput_counts_replicas_retired_mid_tick():
    # Regression: a draining replica that flushes its last batch and
    # retires inside a tick still contributed those finishes — crediting
    # them to the survivors alone would latch phantom per-replica capacity
    # in the peak ratchet (it never decays) and under-provision every
    # later predictive target.
    sim = Simulator()
    engines = [_engine(4, sim) for _ in range(2)]
    cluster = DataParallelCluster(engines, policy="least_loaded", sim=sim,
                                  rng=np.random.default_rng(7))
    for engine in engines:
        engine.cluster = cluster
    config = AutoscaleConfig(min_replicas=1, max_replicas=4,
                             tick_interval=1.0, mode="predictive")
    scaler = Autoscaler(sim=sim, cluster=cluster, config=config,
                        provision=lambda *a, **k: None)
    scaler.start(until=3.0)
    for i in range(8):  # fill both engines (JSQ alternates)
        cluster.dispatch(Request(request_id=i, arrival_time=0.0,
                                 input_tokens=10, output_tokens=2))
    sim.run(until=1.2)  # first tick (t=1) passes with zero finishes
    cluster.drain_replica(1)
    for _ in range(4):  # the drainer flushes its whole batch mid-tick...
        engines[1].finish_one()
    assert cluster.handles[1].is_retired  # ...and retires on its last finish
    sim.run(until=2.2)  # tick at t=2 observes the 4 finishes
    # 4 finishes over 1s across 2 serving replicas (the survivor + the
    # mid-tick retiree) = 2/s per replica, not 4/s.
    assert scaler._peak_service_rate == pytest.approx(2.0)


@pytest.mark.parametrize("mode", AutoscaleConfig.MODES)
@given(ops=_autoscale_ops(), capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=12, deadline=None)
def test_autoscaled_interleavings_respect_bounds(mode, ops, capacity):
    sim = Simulator()
    engines = [_engine(capacity, sim)]
    cluster = DataParallelCluster(
        engines, policy="least_loaded", sim=sim,
        rng=np.random.default_rng(7))
    engines[0].cluster = cluster
    config = AutoscaleConfig(
        min_replicas=1, max_replicas=4, tick_interval=0.5,
        provision_delay=0.5, cooldown=1.0, sustain_ticks=1,
        queue_wait_threshold=0.2, idle_sustain_ticks=2,
        mode=mode, forecast_window=5.0, forecast_cycle=10.0)

    def provision(*, provision_delay):
        return cluster.add_replica(_engine(capacity, sim, cluster),
                                   provision_delay=provision_delay)

    scaler = Autoscaler(sim=sim, cluster=cluster, config=config,
                        provision=provision)
    scaler.start(until=100.0)
    arrived: list = []

    def arrive(n):
        for _ in range(n):
            request = Request(request_id=len(arrived), arrival_time=sim.now,
                              input_tokens=10, output_tokens=2)
            arrived.append(request)
            cluster.dispatch(request)

    for kind, draw in ops:
        if kind == "arrive":
            arrive(1)
        elif kind == "burst":
            arrive(4 + draw)
        elif kind == "finish":
            busy = [e for e in cluster.engines if e.in_flight]
            if busy:
                busy[draw % len(busy)].finish_one()
        else:  # advance: fire ticks and cold-start timers
            sim.run(until=sim.now + 0.6)
        _assert_autoscale_invariants(cluster, scaler, config, arrived)

    # Drain: finish everything (queued work re-dispatches on finish
    # events), then let pending timers fire and ticks wind down.
    for _ in range(10_000):
        busy = [e for e in cluster.engines if e.in_flight]
        if not busy:
            break
        busy[0].finish_one()
    scaler.stop()
    sim.run()
    _assert_autoscale_invariants(cluster, scaler, config, arrived)
    if mode == "reactive":
        assert scaler.predictive_scale_out_count == 0
    else:
        # Every forecast-driven event stayed within the ceiling and left a
        # full diagnostic record.
        for event in scaler.events:
            if event.get("reason") == "predictive":
                assert event["holding"] <= config.max_replicas
                assert event["forecast_lower"] > 0
                # The recorded fleet size includes the newcomers; the target
                # must have exceeded the fleet as it stood before them.
                assert event["target_replicas"] > \
                    event["fleet_size"] - len(event["replicas"])
