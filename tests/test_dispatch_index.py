"""Differential guard: the production dispatch path vs the linear scan.

Production dispatch peeks a count heap for ``least_loaded`` wherever
``DataParallelCluster._index_active`` proves it applies (uniform capability
weights, one shared batch cap), and picks through the scan in ``_pick``
everywhere else: every other policy, and ``least_loaded`` on a mixed fleet.
The oracle here, :func:`scan_pick`, is the linear scan as every pick once
ran it: it probes each candidate engine live, request counts included,
instead of reading the cluster's load counters.  The tests run every policy
both ways and compare complete run fingerprints — same per-engine request
sequences, same stats, same queue delays, same RNG consumption — across the
regimes that exercise every heap maintenance path and every scan branch:
unsaturated flow, batch-cap saturation (the backpressure filter), SLO
admission, lifecycle churn (drain + stall + crash), backpressure off, and
heterogeneous fleets (spec or observed capability weights, mixed batch
caps).

Plus unit tests for the heap itself
(:mod:`repro.hardware.dispatch_index`), and for picks that follow engine
state the dispatcher is never told about.
"""

from __future__ import annotations

import numpy as np
import pytest
from fake_engine import RESIDENT, CapableFakeEngine, FakeEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.hardware.cluster import DataParallelCluster
from repro.hardware.dispatch_index import MinLoadHeap
from repro.llm.model import LLAMA_7B
from repro.serving.admission import SloPolicy
from repro.serving.engine import EngineConfig
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

POLICIES = (
    "least_loaded",
    "round_robin",
    "p2c",
    "token_weighted",
    "adapter_affinity",
    "bounded_affinity",
)


# --------------------------------------------------------------------- #
# MinLoadHeap
# --------------------------------------------------------------------- #
class TestMinLoadHeap:
    def test_peek_returns_minimum(self):
        heap = MinLoadHeap()
        loads = [5, 2, 9, 2]
        for i, load in enumerate(loads):
            heap.push(load, i)
        assert heap.peek(loads, [True] * 4) == 1  # load 2, lowest index

    def test_tie_break_prefers_lowest_index(self):
        heap = MinLoadHeap()
        loads = [3, 3, 3]
        for i in (2, 0, 1):  # push order must not matter
            heap.push(3, i)
        assert heap.peek(loads, [True] * 3) == 0

    def test_stale_entries_are_discarded(self):
        heap = MinLoadHeap()
        loads = [1, 4]
        heap.push(1, 0)
        heap.push(4, 1)
        loads[0] = 7  # engine 0's load moved; entry (1, 0) is stale
        heap.push(7, 0)
        assert heap.peek(loads, [True, True]) == 1

    def test_ineligible_entries_are_discarded(self):
        heap = MinLoadHeap()
        loads = [1, 4]
        heap.push(1, 0)
        heap.push(4, 1)
        assert heap.peek(loads, [False, True]) == 1
        assert heap.peek(loads, [False, False]) is None

    def test_rebuild_replaces_contents(self):
        heap = MinLoadHeap()
        heap.push(0, 3)
        heap.rebuild([(2, 0), (1, 1)])
        assert len(heap) == 2
        assert heap.peek([2, 1], [True, True]) == 1

    def test_equal_duplicate_entries_are_safe(self):
        # Two pushes storing the same (load, index) value: discarding either
        # must leave a current entry behind.
        heap = MinLoadHeap()
        loads = [2]
        heap.push(2, 0)
        heap.push(2, 0)
        assert heap.peek(loads, [True]) == 0


# --------------------------------------------------------------------- #
# Differential guard: production dispatch == linear scan, bit for bit
# --------------------------------------------------------------------- #
def scan_pick(cluster, request, candidates):
    """Linear-scan pick over ``candidates`` (the oracle): probe every
    candidate engine live, normalize by its capability weight, and keep the
    first minimum in candidate order."""
    if len(candidates) == 1:
        return candidates[0]
    policy = cluster.policy
    engines, capability = cluster.engines, cluster._capability

    def load(i):
        if policy == "token_weighted":
            return engines[i].in_flight_token_load() / capability[i]
        return engines[i].in_flight_count() / capability[i]

    if policy == "round_robin":
        n = len(engines)
        eligible = set(candidates)
        for _ in range(n):
            idx = cluster._rr_next
            cluster._rr_next = (idx + 1) % n
            if idx in eligible:
                return idx
        raise AssertionError("unreachable: candidates is non-empty")
    if policy == "p2c":
        i, j = (candidates[int(k)] for k in cluster._rng.choice(
            len(candidates), size=2, replace=False))
        load_i, load_j = load(i), load(j)
        if load_i == load_j:
            return min(i, j)
        return i if load_i < load_j else j
    loads = {i: load(i) for i in candidates}
    adapter_id = request.adapter_id
    if policy in ("adapter_affinity", "bounded_affinity") \
            and adapter_id is not None:
        resident = [i for i in candidates
                    if engines[i].adapter_manager.is_resident(adapter_id)]
        if resident:
            best = min(resident, key=loads.__getitem__)
            if policy == "adapter_affinity":
                return best
            bound = cluster.spill_factor * max(
                1.0, sum(loads.values()) / len(loads))
            if loads[best] <= bound:
                return best
            cluster.stats.spills += 1  # affine replica too hot: spill to JSQ
    return min(candidates, key=loads.__getitem__)


def _use_scan(cluster):
    """Route every pick of ``cluster`` through :func:`scan_pick`;
    `_submit`'s saturation filter still chooses the candidates, as it does
    ahead of `_pick`.  Without a count heap `_update_index_active` keeps
    the index off."""
    cluster._count_heap = None
    cluster._index_active = False
    cluster._pick = lambda request, candidates: scan_pick(
        cluster, request, candidates)


@pytest.fixture(scope="module")
def registry():
    return AdapterRegistry.build(LLAMA_7B, 100)


def _trace(registry, rps, duration=18.0):
    rng = RngStreams(9).get("trace")
    return synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=duration,
                            rng=rng, registry=registry)


def _fingerprint(system):
    """Everything observable about a run, for exact comparison."""
    stats = system.cluster.stats
    return {
        "per_engine": [
            [r.request_id for r in engine.all_requests]
            for engine in system.engines
        ],
        "dispatched": stats.dispatched,
        "queued": stats.queued,
        "spills": stats.spills,
        "shed": stats.shed,
        "deprioritized": stats.deprioritized,
        "queue_delays": list(stats.queue_delays),
        "ttfts": sorted(
            (r.request_id, r.ttft)
            for r in system.all_requests()
            if r.first_token_time is not None
        ),
        "events": system.sim.processed_events,
    }


def _run(policy, registry, trace, *, oracle, engine_config=None,
         churn=False, **kwargs):
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=4, dispatch_policy=policy, seed=5,
        registry=registry,
        **({"engine_config": engine_config} if engine_config else {}),
        **kwargs)
    if oracle:
        _use_scan(system.cluster)
    if churn:
        system.sim.schedule_at(4.0, system.cluster.stall_replica, 2, 2.5)
        system.sim.schedule_at(6.0, system.cluster.drain_replica, 1)
        system.sim.schedule_at(9.0, system.cluster.fail_replica, 3)
    system.run_trace(trace.fresh())
    return _fingerprint(system)


def _assert_matches_oracle(policy, registry, trace, **kwargs):
    production = _run(policy, registry, trace, oracle=False, **kwargs)
    scanned = _run(policy, registry, trace, oracle=True, **kwargs)
    assert production == scanned


@pytest.mark.parametrize("policy", POLICIES)
def test_index_identity_unsaturated(policy, registry):
    _assert_matches_oracle(policy, registry, _trace(registry, rps=14.0))


@pytest.mark.parametrize("policy", POLICIES)
def test_index_identity_saturated(policy, registry):
    # Tiny batch caps force the backpressure saturation filter and the
    # global queue on, exercising every filtered index branch.
    _assert_matches_oracle(policy, registry, _trace(registry, rps=40.0),
                           engine_config=EngineConfig(max_batch_size=4))


@pytest.mark.parametrize("policy", POLICIES)
def test_index_identity_slo_shed(policy, registry):
    _assert_matches_oracle(policy, registry, _trace(registry, rps=40.0),
                           engine_config=EngineConfig(max_batch_size=4),
                           slo_policy=SloPolicy(ttft_deadline=2.0,
                                                mode="shed"))


@pytest.mark.parametrize("policy", POLICIES)
def test_index_identity_lifecycle_churn(policy, registry):
    # Stall + drain + crash mid-run: index rebuilds on eligibility changes
    # and the bulk-move resync path must stay identical.
    _assert_matches_oracle(policy, registry, _trace(registry, rps=30.0),
                           engine_config=EngineConfig(max_batch_size=6),
                           churn=True)


@pytest.mark.parametrize("policy", POLICIES)
def test_index_identity_no_backpressure(policy, registry):
    # Counts run past the batch cap: no saturation filter, and the heaps
    # see loads above the cap.
    _assert_matches_oracle(policy, registry, _trace(registry, rps=40.0),
                           engine_config=EngineConfig(max_batch_size=4),
                           backpressure=False)


@pytest.mark.parametrize("policy,weights", [
    *(pytest.param(policy, "spec", id=policy) for policy in POLICIES),
    *(pytest.param(policy, "observed", id=f"{policy}-observed")
      for policy in POLICIES),
])
def test_index_identity_heterogeneous_fleet(policy, weights, registry):
    # Mixed-spec fleets make capability weights non-uniform, from the GPU
    # specs or from observed per-replica service rates: the load-comparing
    # policies must stand down to the normalized scan and p2c's probes
    # must normalize — this guards the `_index_active` gate.
    _assert_matches_oracle(
        policy, registry, _trace(registry, rps=20.0),
        replica_specs=["a100-80gb", "a40-48gb", "a40-48gb", "a100-24gb"],
        capability_estimator=weights)


@pytest.mark.parametrize("policy", POLICIES)
def test_index_identity_mixed_batch_caps(policy, registry):
    # Uniform weights but per-replica batch caps: the saturated-sum and
    # single-cap shortcuts do not hold, so the gate must fall back here too.
    specs = [{"engine_config": EngineConfig(max_batch_size=cap)}
             for cap in (3, 6, 4, 8)]
    _assert_matches_oracle(policy, registry, _trace(registry, rps=40.0),
                           replica_specs=specs)


def _replay_fake_fleet(policy, ops, n, cap, mixed_caps, mixed_speed,
                       spill_factor, *, oracle):
    engines = [
        CapableFakeEngine(max_batch_size=cap + (i % 2 if mixed_caps else 0),
                          capability=1.0 + (i % 2 if mixed_speed else 0),
                          resident={i % 3})
        for i in range(n)]
    cluster = DataParallelCluster(engines, policy=policy,
                                  spill_factor=spill_factor,
                                  rng=np.random.default_rng(7))
    if oracle:
        _use_scan(cluster)
    picks = []
    for rid, (kind, draw) in enumerate(ops):
        if kind == "arrive":
            picks.append(cluster.dispatch(Request(
                request_id=rid, arrival_time=0.0, input_tokens=10,
                output_tokens=2, adapter_id=draw % 4)))
        else:
            busy = [e for e in engines if e.in_flight]
            if busy:
                busy[draw % len(busy)].finish_one()
    return picks, cluster.stats.spills, cluster.queue_len()


@pytest.mark.parametrize("policy", POLICIES)
@given(ops=st.lists(st.tuples(st.sampled_from(["arrive", "arrive", "finish"]),
                              st.integers(min_value=0, max_value=7)),
                    min_size=1, max_size=60),
       n=st.integers(min_value=2, max_value=4),
       cap=st.integers(min_value=1, max_value=4),
       mixed_caps=st.booleans(), mixed_speed=st.booleans(),
       spill_factor=st.sampled_from([1.0, 1.25, 1.5]))
@settings(max_examples=60, deadline=None)
def test_index_identity_fake_fleet_interleavings(policy, ops, n, cap,
                                                 mixed_caps, mixed_speed,
                                                 spill_factor):
    # Random arrival/finish interleavings on small fake fleets reach edge
    # states (one replica left with headroom, affine replica at the bound)
    # far more often than trace replays do.
    args = (policy, ops, n, cap, mixed_caps, mixed_speed, spill_factor)
    assert _replay_fake_fleet(*args, oracle=False) == \
        _replay_fake_fleet(*args, oracle=True)


def test_token_index_keeps_replica_regaining_headroom():
    # A finished request leaves no tokens behind, so the finish that frees
    # a batch slot need not move the token load — the drain must still
    # route the waiting request to the replica that regained headroom.
    class FlatTokens(FakeEngine):
        def in_flight_token_load(self):
            return self.tokens

    engines = [FlatTokens(max_batch_size=1, tokens=5),
               FlatTokens(max_batch_size=1, tokens=9)]
    cluster = DataParallelCluster(engines, policy="token_weighted")
    requests = [Request(request_id=i, arrival_time=0.0, input_tokens=10,
                        output_tokens=2) for i in range(3)]
    assert cluster.dispatch(requests[0]) == 0   # lowest token load
    assert cluster.dispatch(requests[1]) == 1   # engine 0 is saturated
    assert cluster.dispatch(requests[2]) is None
    engines[0].finish_one()
    assert engines[0].in_flight == [requests[2]]


def test_token_weighted_pick_reads_the_current_token_load():
    # The engine's token load moves with no call into the dispatcher (here
    # by assignment); the next pick must see the new value.
    engines = [FakeEngine(tokens=5), FakeEngine(tokens=9)]
    cluster = DataParallelCluster(engines, policy="token_weighted")
    requests = [Request(request_id=i, arrival_time=0.0, input_tokens=10,
                        output_tokens=2) for i in range(2)]
    assert cluster.dispatch(requests[0]) == 0   # 5 + 0 < 9
    engines[0].tokens = 50
    assert cluster.dispatch(requests[1]) == 1   # 50 + 1 > 9


def test_affinity_pick_reads_the_current_residency():
    # An adapter becomes resident with no call into the dispatcher; its
    # next request must go there, over a less-loaded replica.
    engines = [FakeEngine(), FakeEngine(load=1)]
    cluster = DataParallelCluster(engines, policy="adapter_affinity")
    engines[1].entries[3] = RESIDENT
    request = Request(request_id=0, arrival_time=0.0, input_tokens=10,
                      output_tokens=2, adapter_id=3)
    assert cluster.dispatch(request) == 1
