"""Tests for cluster-level SLO admission: the SloPolicy itself, the shed
path, the deprioritized lane, and the queue-wait estimator that drives the
knee decision."""

import pytest
from fake_engine import FakeEngine

from repro.hardware.cluster import (
    FINISH_INTERVAL_EWMA_ALPHA,
    DataParallelCluster,
)
from repro.serving.admission import SloPolicy
from repro.workload.request import Request


class _FakeSim:
    def __init__(self):
        self.now = 0.0


def _req(rid=0, adapter_id=None):
    return Request(request_id=rid, arrival_time=0.0, input_tokens=10,
                   output_tokens=2, adapter_id=adapter_id)


# --------------------------------------------------------------------- #
# SloPolicy validation and deadline math
# --------------------------------------------------------------------- #
def test_slo_policy_rejects_bad_deadline():
    with pytest.raises(ValueError):
        SloPolicy(ttft_deadline=0.0)
    with pytest.raises(ValueError):
        SloPolicy(ttft_deadline=-1.0)


def test_slo_policy_rejects_unknown_mode():
    with pytest.raises(ValueError):
        SloPolicy(ttft_deadline=1.0, mode="drop_everything")


def test_slo_policy_deadline_is_flat_without_slowdown():
    policy = SloPolicy(ttft_deadline=2.0)
    assert policy.deadline_for(_req()) == 2.0


def test_slo_policy_attained():
    policy = SloPolicy(ttft_deadline=1.0)
    request = _req()
    assert not policy.attained(request)  # not finished
    request.first_token_time = 0.5
    request.finish_time = 2.0
    from repro.workload.request import RequestState
    request.state = RequestState.FINISHED
    assert policy.attained(request)
    request.first_token_time = 1.5
    assert not policy.attained(request)


# --------------------------------------------------------------------- #
# The queue-wait estimator
# --------------------------------------------------------------------- #
def _saturated_cluster(slo_policy=None, capacity=1, n=2):
    sim = _FakeSim()
    engines = [FakeEngine(max_batch_size=capacity, sim=sim) for _ in range(n)]
    cluster = DataParallelCluster(engines, policy="least_loaded",
                                  slo_policy=slo_policy)
    for i in range(n * capacity):
        assert cluster.dispatch(_req(rid=i)) is not None
    return sim, engines, cluster


def test_estimator_is_optimistic_before_any_finish():
    _, _, cluster = _saturated_cluster()
    assert cluster.estimated_queue_wait() == 0.0


def test_estimator_tracks_inter_finish_ewma():
    sim, engines, cluster = _saturated_cluster()
    sim.now = 5.0
    engines[0].finish_one()      # first finish: no interval yet
    assert cluster.estimated_queue_wait() == 0.0
    sim.now = 7.0
    engines[1].finish_one()      # interval 2.0 seeds the EWMA
    assert cluster.estimated_queue_wait() == pytest.approx(2.0)
    sim.now = 8.0
    assert cluster.dispatch(_req(rid=90)) == 0  # refill for another finish
    engines[0].finish_one()      # interval 1.0 folds in at alpha
    expected = (1 - FINISH_INTERVAL_EWMA_ALPHA) * 2.0 + FINISH_INTERVAL_EWMA_ALPHA * 1.0
    assert cluster.estimated_queue_wait() == pytest.approx(expected)


def test_estimator_amortizes_same_timestamp_batches():
    """A batch of finishes sharing one timestamp is one drain event of that
    size — not a run of zero-length intervals that would collapse the EWMA
    at every batch boundary."""
    sim, engines, cluster = _saturated_cluster(capacity=2)
    sim.now = 2.0
    engines[0].finish_one()
    engines[0].finish_one()  # same instant: batch of 2, no zero samples
    assert cluster.estimated_queue_wait() == 0.0  # still seeding
    sim.now = 6.0
    engines[1].finish_one()
    # The batch of 2 took 4.0s until the next drain: 2.0s per slot.
    assert cluster.estimated_queue_wait() == pytest.approx(2.0)


def test_estimator_scales_with_queue_position():
    sim, engines, cluster = _saturated_cluster()
    sim.now = 1.0
    engines[0].finish_one()
    sim.now = 3.0
    engines[1].finish_one()  # EWMA = 2.0, both engines free now
    # Saturate again and stack two arrivals in the FIFO lane.
    cluster.dispatch(_req(rid=10))
    cluster.dispatch(_req(rid=11))
    cluster.dispatch(_req(rid=12))
    cluster.dispatch(_req(rid=13))
    assert cluster.queue_len() == 2
    # Next arrival would sit at position 3: three inter-finish intervals.
    assert cluster.estimated_queue_wait() == pytest.approx(3 * 2.0)


# --------------------------------------------------------------------- #
# Shed mode
# --------------------------------------------------------------------- #
def test_shed_past_the_knee():
    policy = SloPolicy(ttft_deadline=1.0, mode="shed")
    sim, engines, cluster = _saturated_cluster(policy)
    sim.now = 5.0
    engines[0].finish_one()
    sim.now = 7.0
    engines[1].finish_one()  # EWMA = 2.0 > deadline for any queued arrival
    cluster.dispatch(_req(rid=10))
    cluster.dispatch(_req(rid=11))  # engines full again
    doomed = _req(rid=12)
    assert cluster.dispatch(doomed) is None
    assert doomed.shed
    assert cluster.stats.shed == 1
    assert cluster.shed_requests() == [doomed]
    assert cluster.queue_len() == 0  # never entered a lane
    assert all(doomed not in e.submitted for e in engines)


def test_cold_start_admits_everything():
    policy = SloPolicy(ttft_deadline=0.001, mode="shed")
    _, _, cluster = _saturated_cluster(policy)
    # No finish has been observed: the estimator is optimistic, so even a
    # tight deadline queues rather than sheds.
    assert cluster.dispatch(_req(rid=10)) is None
    assert cluster.stats.shed == 0
    assert cluster.queue_len() == 1


def test_shed_requests_stay_out_of_dispatch_accounting():
    policy = SloPolicy(ttft_deadline=1.0, mode="shed")
    sim, engines, cluster = _saturated_cluster(policy)
    sim.now = 1.0
    engines[0].finish_one()
    sim.now = 3.0
    engines[1].finish_one()  # EWMA = 2.0 > the 1.0s deadline
    cluster.dispatch(_req(rid=10))
    cluster.dispatch(_req(rid=11))
    cluster.dispatch(_req(rid=12))  # shed
    arrivals = 5  # r0, r1 (saturating), r10, r11 (refill), r12 (shed)
    assert cluster.stats.dispatched + cluster.queue_len() + cluster.stats.shed \
        == arrivals


# --------------------------------------------------------------------- #
# Deprioritize mode (the low-priority lane)
# --------------------------------------------------------------------- #
def _lane_cluster():
    """EWMA = 2.0, deadline 2.0: position-1 arrivals queue FIFO, deeper
    arrivals (est 4.0+) go to the low lane."""
    policy = SloPolicy(ttft_deadline=2.0, mode="deprioritize")
    sim, engines, cluster = _saturated_cluster(policy)
    sim.now = 1.0
    engines[0].finish_one()
    sim.now = 3.0
    engines[1].finish_one()
    cluster.dispatch(_req(rid=10))
    cluster.dispatch(_req(rid=11))  # both engines saturated again
    return sim, engines, cluster


def test_deprioritize_goes_to_low_lane():
    sim, engines, cluster = _lane_cluster()
    first = _req(rid=12)   # est 2.0 <= 2.0: FIFO lane
    second = _req(rid=13)  # est 4.0 > 2.0: low lane
    assert cluster.dispatch(first) is None
    assert cluster.dispatch(second) is None
    assert not first.deprioritized
    assert second.deprioritized
    assert cluster.queue_len() == 2
    assert len(cluster._low_queue) == 1
    assert cluster.stats.deprioritized == 1
    assert cluster.stats.shed == 0
    assert cluster.pending_requests() == [first, second]  # FIFO lane first


def test_low_lane_drains_only_after_fifo_lane():
    sim, engines, cluster = _lane_cluster()
    first, second = _req(rid=12), _req(rid=13)
    cluster.dispatch(first)
    cluster.dispatch(second)
    sim.now = 5.0
    engines[0].finish_one()
    # The freed slot goes to the FIFO head, not the low lane.
    assert first in engines[0].submitted
    assert len(cluster._low_queue) == 1
    sim.now = 7.0
    engines[1].finish_one()
    assert second in engines[1].submitted
    assert cluster.queue_len() == 0
    # Queue-delay accounting covers both lanes.
    assert first.dispatch_queue_delay == pytest.approx(5.0 - 3.0)
    assert second.dispatch_queue_delay == pytest.approx(7.0 - 3.0)


def test_new_arrival_overtakes_the_low_lane_only():
    sim, engines, cluster = _lane_cluster()
    parked = _req(rid=12)
    cluster.dispatch(_req(rid=99))  # fills the FIFO lane to depth 1
    cluster.dispatch(parked)        # est 4.0 > 2.0: low lane
    sim.now = 5.0
    engines[0].finish_one()         # drains the FIFO head, lane now empty
    assert len(cluster._low_queue) == 1
    # A fresh deadline-feasible arrival (est 2.0) joins the FIFO lane,
    # which drains before the low lane: it takes the next freed slot.
    fresh = _req(rid=14)
    assert cluster.dispatch(fresh) is None
    assert not fresh.deprioritized
    sim.now = 7.0
    engines[1].finish_one()
    assert fresh in engines[1].submitted
    assert cluster.pending_requests() == [parked]


def test_deprioritized_requests_are_never_lost():
    sim, engines, cluster = _lane_cluster()
    lows = [_req(rid=20 + i) for i in range(3)]
    cluster.dispatch(_req(rid=12))
    for request in lows:
        cluster.dispatch(request)
    for t in (5.0, 7.0, 9.0, 11.0):
        sim.now = t
        engine = max(engines, key=FakeEngine.in_flight_count)
        engine.finish_one()
    submitted = [r for e in engines for r in e.submitted]
    assert all(request in submitted for request in lows)


# --------------------------------------------------------------------- #
# Wiring constraints
# --------------------------------------------------------------------- #
def test_slo_policy_requires_backpressure():
    with pytest.raises(ValueError):
        DataParallelCluster([FakeEngine(max_batch_size=1)], backpressure=False,
                            slo_policy=SloPolicy(ttft_deadline=1.0))


def test_estimator_folds_batched_intervals_hand_computed_ewma():
    """Two successive drain events, both batched, with the EWMA folded by
    hand: a batch of 3 amortizes its gap to 1.0 s/slot (the seed), then a
    batch of 2 amortizes the next gap to 0.5 s/slot and folds in at alpha."""
    sim, engines, cluster = _saturated_cluster(capacity=3)
    sim.now = 1.0
    for _ in range(3):
        engines[0].finish_one()      # one drain event of size 3
    assert cluster.estimated_queue_wait() == 0.0   # still seeding
    sim.now = 4.0
    engines[1].finish_one()          # (4.0 - 1.0) / 3 = 1.0 seeds the EWMA
    assert cluster.estimated_queue_wait() == pytest.approx(1.0)
    engines[1].finish_one()          # same instant: grows the current batch
    sim.now = 5.0
    engines[1].finish_one()          # (5.0 - 4.0) / 2 = 0.5 folds in
    expected = (1 - FINISH_INTERVAL_EWMA_ALPHA) * 1.0 \
        + FINISH_INTERVAL_EWMA_ALPHA * 0.5
    assert cluster.estimated_queue_wait() == pytest.approx(expected)


def test_estimator_amortized_wait_scales_with_queue_position():
    """The per-slot amortized interval multiplies by FIFO queue position:
    a batch of 2 that took 6.0 s to the next drain is 3.0 s/slot, so an
    arrival behind 2 queued requests waits about 3 intervals."""
    sim, engines, cluster = _saturated_cluster(capacity=2)
    sim.now = 2.0
    engines[0].finish_one()
    engines[0].finish_one()          # batch of 2 at t=2
    sim.now = 8.0
    engines[1].finish_one()          # (8.0 - 2.0) / 2 = 3.0 seeds the EWMA
    # Refill the 3 free slots, then stack 2 arrivals in the FIFO lane.
    for rid in range(20, 25):
        cluster.dispatch(_req(rid=rid))
    assert cluster.queue_len() == 2
    assert cluster.estimated_queue_wait() == pytest.approx(3 * 3.0)
