"""Tests for tensor-parallel groups and the data-parallel dispatcher."""

import pytest
from fake_engine import CapableFakeEngine, FakeEngine

from repro.hardware.cluster import DataParallelCluster, TensorParallelGroup
from repro.hardware.gpu import A100_80GB, GB
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.sim.simulator import Simulator


def test_tp_group_aggregates_memory():
    group = TensorParallelGroup(A100_80GB, tp_degree=4)
    assert group.capacity == 4 * 80 * GB


def test_tp_compute_speedup_sublinear():
    tp2 = TensorParallelGroup(A100_80GB, 2)
    tp4 = TensorParallelGroup(A100_80GB, 4)
    assert 1.0 < tp2.compute_speedup < 2.0
    assert tp2.compute_speedup < tp4.compute_speedup < 4.0


def test_tp1_is_identity():
    tp1 = TensorParallelGroup(A100_80GB, 1)
    assert tp1.compute_speedup == 1.0


def test_invalid_tp_degree():
    with pytest.raises(ValueError):
        TensorParallelGroup(A100_80GB, 0)


def test_tp_adapter_load_time_grows_with_degree():
    """Figure 5's mechanism: sharded loads pay per-shard sync overheads."""
    sim = Simulator()
    link = PcieLink(sim, PcieSpec())
    times = [
        TensorParallelGroup(A100_80GB, tp).adapter_load_time(link, 256 * 1024 * 1024)
        for tp in (1, 2, 4, 8)
    ]
    assert times == sorted(times)
    assert times[-1] > times[0]


def test_tp_sharded_load_through_link():
    sim = Simulator()
    link = PcieLink(sim, PcieSpec())
    group = TensorParallelGroup(A100_80GB, 4)
    done = []
    group.submit_adapter_load(link, 256 * 1024 * 1024, callback=lambda x: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(group.adapter_load_time(link, 256 * 1024 * 1024), rel=0.05)


class _FakeRequest:
    def __init__(self, adapter_id=None, rid=0):
        self.adapter_id = adapter_id
        self.request_id = rid
        self.dispatch_queue_delay = 0.0


def test_dp_least_loaded_picks_min():
    engines = [FakeEngine(5), FakeEngine(2), FakeEngine(9)]
    cluster = DataParallelCluster(engines, policy="least_loaded")
    assert cluster.dispatch(_FakeRequest()) == 1
    assert engines[1].submitted


def test_dp_round_robin_cycles():
    engines = [FakeEngine(), FakeEngine(), FakeEngine()]
    cluster = DataParallelCluster(engines, policy="round_robin")
    picks = [cluster.dispatch(_FakeRequest()) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_dp_adapter_affinity_falls_back_to_jsq():
    engines = [FakeEngine(5), FakeEngine(2)]
    cluster = DataParallelCluster(engines, policy="adapter_affinity")
    assert cluster.dispatch(_FakeRequest(adapter_id=3)) == 1


def test_dp_adapter_affinity_prefers_resident():
    engines = [FakeEngine(9, resident={3}), FakeEngine(0)]
    cluster = DataParallelCluster(engines, policy="adapter_affinity")
    # Engine 0 has the adapter resident, so it wins despite higher load.
    assert cluster.dispatch(_FakeRequest(adapter_id=3)) == 0


def test_dp_rejects_unknown_policy():
    with pytest.raises(ValueError):
        DataParallelCluster([FakeEngine()], policy="random")


def test_dp_rejects_empty_cluster():
    with pytest.raises(ValueError):
        DataParallelCluster([], policy="least_loaded")


def test_dp_rejects_bad_spill_factor():
    with pytest.raises(ValueError):
        DataParallelCluster([FakeEngine()], policy="bounded_affinity",
                            spill_factor=0.5)


# --------------------------------------------------------------------- #
# New dispatch policies
# --------------------------------------------------------------------- #
def test_dp_p2c_picks_less_loaded_of_two():
    # With two engines, any two-of-two sample compares both; the idle one
    # wins.  Finishing each pick restores the loads for the next draw.
    engines = [FakeEngine(5), FakeEngine()]
    cluster = DataParallelCluster(engines, policy="p2c")
    for _ in range(8):
        assert cluster.dispatch(_FakeRequest()) == 1
        engines[1].finish_one()


def test_dp_p2c_single_engine():
    cluster = DataParallelCluster([FakeEngine(3)], policy="p2c")
    assert cluster.dispatch(_FakeRequest()) == 0


def test_dp_token_weighted_ignores_request_count():
    # Engine 0 holds one huge request; engine 1 holds five tiny ones.  JSQ
    # would pick engine 0; token weighting sees where the work actually is.
    def fleet():
        return [FakeEngine(1, tokens=10_000), FakeEngine(5, tokens=100)]

    jsq = DataParallelCluster(fleet(), policy="least_loaded")
    tok = DataParallelCluster(fleet(), policy="token_weighted")
    assert jsq.dispatch(_FakeRequest()) == 0
    assert tok.dispatch(_FakeRequest()) == 1


def test_dp_bounded_affinity_stays_affine_under_bound():
    # Loads [1, 1, 1]: bound = 1.5 x mean = 1.5, affine load 1 <= 1.5: hold.
    engines = [FakeEngine(1, resident={3}), FakeEngine(1), FakeEngine(1)]
    cluster = DataParallelCluster(engines, policy="bounded_affinity")
    assert cluster.dispatch(_FakeRequest(adapter_id=3)) == 0
    assert cluster.stats.spills == 0


def test_dp_bounded_affinity_spills_past_threshold():
    # The affine replica is far above the mean load: fall back to JSQ.
    def fleet():
        return [FakeEngine(9, resident={3}), FakeEngine(0), FakeEngine(1)]

    bounded = DataParallelCluster(fleet(), policy="bounded_affinity",
                                  spill_factor=1.5)
    assert bounded.dispatch(_FakeRequest(adapter_id=3)) == 1
    assert bounded.stats.spills == 1
    # The unbounded variant happily piles onto the hot replica.
    unbounded = DataParallelCluster(fleet(), policy="adapter_affinity")
    assert unbounded.dispatch(_FakeRequest(adapter_id=3)) == 0


def test_dp_bounded_affinity_bound_averages_unsaturated_candidates():
    # Engine 0 is saturated, so the candidates are engines 1 and 2, loads
    # [2, 2]: bound = 1.0 x mean 2.0 = 2.0, affine load 2 <= 2.0: hold.
    # Dividing the candidates' load by the fleet size (4 / 3) would spill.
    engines = [FakeEngine(4, max_batch_size=4),
               FakeEngine(2, max_batch_size=4, resident={3}),
               FakeEngine(2, max_batch_size=4)]
    cluster = DataParallelCluster(engines, policy="bounded_affinity",
                                  spill_factor=1.0)
    assert cluster.dispatch(_FakeRequest(adapter_id=3)) == 1
    assert cluster.stats.spills == 0


# --------------------------------------------------------------------- #
# Global admission queue with backpressure
# --------------------------------------------------------------------- #
class _FakeSim:
    def __init__(self):
        self.now = 0.0


def test_dp_backpressure_queues_when_all_saturated():
    engines = [FakeEngine(max_batch_size=1), FakeEngine(max_batch_size=1)]
    cluster = DataParallelCluster(engines, policy="least_loaded")
    assert cluster.dispatch(_FakeRequest(rid=0)) == 0
    assert cluster.dispatch(_FakeRequest(rid=1)) == 1
    # Both engines are at capacity: arrivals wait in the global queue.
    assert cluster.dispatch(_FakeRequest(rid=2)) is None
    assert cluster.dispatch(_FakeRequest(rid=3)) is None
    assert cluster.queue_len() == 2
    assert cluster.stats.queued == 2


def test_dp_backpressure_drains_in_arrival_order():
    sim = _FakeSim()
    engines = [FakeEngine(max_batch_size=1, sim=sim),
               FakeEngine(max_batch_size=1, sim=sim)]
    cluster = DataParallelCluster(engines, policy="least_loaded")
    requests = [_FakeRequest(rid=i) for i in range(5)]
    for r in requests[:2]:
        cluster.dispatch(r)
    sim.now = 1.0
    for r in requests[2:]:
        cluster.dispatch(r)
    # Finish events pull from the queue head: strict arrival order.
    sim.now = 3.0
    engines[0].finish_one()
    assert engines[0].submitted[-1].request_id == 2
    sim.now = 4.0
    engines[1].finish_one()
    assert engines[1].submitted[-1].request_id == 3
    engines[0].finish_one()
    assert engines[0].submitted[-1].request_id == 4
    # Queue-delay accounting: r2 waited 3.0 - 1.0 = 2.0s, r3 waited 3.0s.
    assert requests[2].dispatch_queue_delay == pytest.approx(2.0)
    assert requests[3].dispatch_queue_delay == pytest.approx(3.0)
    assert cluster.queue_len() == 0
    assert len(cluster.stats.queue_delays) == 3


def test_dp_drain_targets_the_freed_engine():
    # Round-robin's cursor points at engine 0, but engine 1 owns the freed
    # slot: the drained request must not be force-fed to the full engine.
    engines = [FakeEngine(max_batch_size=2), FakeEngine(max_batch_size=2)]
    cluster = DataParallelCluster(engines, policy="round_robin")
    for i in range(4):
        cluster.dispatch(_FakeRequest(rid=i))
    assert cluster.dispatch(_FakeRequest(rid=4)) is None
    engines[1].finish_one()
    assert engines[1].submitted[-1].request_id == 4
    assert engines[0].in_flight_count() == 2  # never pushed past capacity


def test_dp_dispatch_skips_saturated_engine():
    # Partial saturation: routing policies that don't follow load (here
    # round-robin) must still avoid engines with no room.
    engines = [FakeEngine(max_batch_size=1), FakeEngine(max_batch_size=5)]
    cluster = DataParallelCluster(engines, policy="round_robin")
    assert cluster.dispatch(_FakeRequest(rid=0)) == 0  # engine 0 now full
    assert cluster.dispatch(_FakeRequest(rid=1)) == 1
    assert cluster.dispatch(_FakeRequest(rid=2)) == 1
    assert engines[0].in_flight_count() == 1


def test_dp_backpressure_disabled_force_submits():
    engines = [FakeEngine(max_batch_size=1, enforce_cap=False)
               for _ in range(2)]
    cluster = DataParallelCluster(engines, policy="least_loaded",
                                  backpressure=False)
    for i in range(4):
        assert cluster.dispatch(_FakeRequest(rid=i)) is not None
    assert cluster.queue_len() == 0
    assert engines[0].in_flight_count() + engines[1].in_flight_count() == 4


# --------------------------------------------------------------------- #
# Capability-normalized routing (heterogeneous fleets)
# --------------------------------------------------------------------- #
def test_capability_weights_normalize_to_mean_one():
    engines = [CapableFakeEngine(capability=2.0),
               CapableFakeEngine(capability=1.0)]
    cluster = DataParallelCluster(engines, policy="least_loaded")
    assert cluster.capability_weights() == pytest.approx([4 / 3, 2 / 3])


def test_homogeneous_capabilities_stay_exactly_one():
    # Equal capabilities must not perturb loads even by float rounding —
    # homogeneous clusters behave bit-for-bit as before.
    engines = [CapableFakeEngine(capability=3.7) for _ in range(3)]
    cluster = DataParallelCluster(engines, policy="least_loaded")
    assert cluster.capability_weights() == [1.0, 1.0, 1.0]


def test_engines_without_probe_default_to_one():
    cluster = DataParallelCluster([FakeEngine(), FakeEngine()],
                                  policy="least_loaded")
    assert cluster.capability_weights() == [1.0, 1.0]


def test_normalized_jsq_prefers_fast_replica():
    # Engine 0 is twice as capable and holds 4 in flight; engine 1 holds 3.
    # Raw JSQ picks engine 1; utilization says engine 0 is less loaded.
    def fleet():
        return [CapableFakeEngine(4, capability=2.0),
                CapableFakeEngine(3, capability=1.0)]

    cluster = DataParallelCluster(fleet(), policy="least_loaded")
    assert cluster.dispatch(_FakeRequest()) == 0
    raw = DataParallelCluster(fleet(), policy="least_loaded",
                              normalize_capability=False)
    assert raw.dispatch(_FakeRequest()) == 1


def test_normalized_token_weighted_load():
    # 8000 tokens on a 2x replica is lighter than 5000 on a 1x replica.
    engines = [CapableFakeEngine(1, capability=2.0, tokens=8000),
               CapableFakeEngine(1, capability=1.0, tokens=5000)]
    cluster = DataParallelCluster(engines, policy="token_weighted")
    assert cluster.dispatch(_FakeRequest()) == 0


def test_non_positive_capability_rejected():
    with pytest.raises(ValueError):
        DataParallelCluster([CapableFakeEngine(capability=0.0)],
                            policy="least_loaded")


def test_bounded_affinity_bound_uses_normalized_loads():
    # Affine replica holds 6 at 2x capability: normalized load 6/1.333=4.5.
    # Peers hold 3 at 1x: normalized 4.5 each.  Mean 4.5, bound 6.75: hold.
    def fleet():
        return [CapableFakeEngine(6, capability=2.0, resident={3}),
                CapableFakeEngine(3, capability=1.0),
                CapableFakeEngine(3, capability=1.0)]

    cluster = DataParallelCluster(fleet(), policy="bounded_affinity",
                                  spill_factor=1.5)
    assert cluster.dispatch(_FakeRequest(adapter_id=3)) == 0
    assert cluster.stats.spills == 0
    # The raw-load view (6 vs 3, mean 4, bound 6) would have spilled.
    raw = DataParallelCluster(fleet(), policy="bounded_affinity",
                              spill_factor=1.4, normalize_capability=False)
    assert raw.dispatch(_FakeRequest(adapter_id=3)) != 0
    assert raw.stats.spills == 1
