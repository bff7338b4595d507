"""Region invariants: conservation, eligibility, and 1-shard identity.

Property-based (hypothesis) checks over the sharded region control plane
(:mod:`repro.serving.region`):

* **Conservation across shards** — no request is lost or double-counted by
  routing, cross-shard spills, or work stealing: every shard's dispatcher
  books balance (``dispatched + shed + still-queued == arrivals + stolen -
  donated``), the region sees every trace arrival exactly once, and the
  shard arrival counts sum to the region's.
* **Eligibility** — stealing and spilling must never submit to a replica
  outside the dispatch set (draining, stalled, failed, cold), even while
  lifecycle churn is rewriting that set mid-run.
* **1-shard identity** — a 1-shard region is the bare
  ``MultiReplicaSystem`` bit for bit: same per-engine request sequences,
  same stats, same event count.

Plus a deterministic check that per-shard autoscalers stay within their
own shard's ``max_replicas``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.serving.autoscaler import AutoscaleConfig
from repro.serving.engine import EngineConfig
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = AdapterRegistry.build(LLAMA_7B, 100)
    return _REGISTRY


def _trace(rps, duration=10.0, seed=9, tenants=0):
    registry = _registry()
    rng = RngStreams(seed).get("trace")
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=duration,
                             rng=rng, registry=registry)
    if tenants:
        trace.label_tenants(tenants, RngStreams(seed).get("tenants"))
    return trace


def _build_region(trace, *, n_shards, spill, steal, shard_key="hash",
                  seed=5, churn=False, **kwargs):
    region = ServingRegion.build(
        "chameleon", n_replicas=2, registry=_registry(), seed=seed,
        engine_config=EngineConfig(max_batch_size=4),
        region=RegionConfig(n_shards=n_shards, shard_key=shard_key,
                            spill=spill, steal=steal),
        **kwargs)
    if churn and n_shards > 1:
        # Lifecycle churn on shard 0 while its siblings keep cooperating.
        cluster = region.systems[0].cluster
        region.sim.schedule_at(3.0, cluster.stall_replica, 0, 2.0)
        region.sim.schedule_at(5.0, cluster.drain_replica, 1)
    region.run_trace(trace.fresh())
    return region


# --------------------------------------------------------------------- #
# Conservation across shards
# --------------------------------------------------------------------- #
@settings(max_examples=8, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=4),
    rps=st.floats(min_value=10.0, max_value=50.0),
    spill=st.booleans(),
    steal=st.booleans(),
    tenant_keyed=st.booleans(),
)
def test_region_conserves_requests(n_shards, rps, spill, steal, tenant_keyed):
    trace = _trace(rps, tenants=8 if tenant_keyed else 0)
    region = _build_region(
        trace, n_shards=n_shards, spill=spill, steal=steal,
        shard_key="tenant" if tenant_keyed else "hash")
    # Region-level: every arrival exactly once, no duplicates.
    requests = region.all_requests()
    assert sorted(r.request_id for r in requests) == \
        sorted(r.request_id for r in trace.requests)
    assert region.stats.arrivals == len(trace.requests)
    assert sum(region.stats.routed) == region.stats.arrivals
    # Shard-level books balance, donations and thefts included.
    for system in region.systems:
        stats = system.cluster.stats
        assert stats.dispatched + stats.shed + system.cluster.queue_len() \
            == stats.arrivals + stats.stolen - stats.donated
    assert sum(s.cluster.stats.donated for s in region.systems) \
        == sum(s.cluster.stats.stolen for s in region.systems) \
        == region.stats.steals


# --------------------------------------------------------------------- #
# Eligibility: steal/spill never submit outside the dispatch set
# --------------------------------------------------------------------- #
@settings(max_examples=6, deadline=None)
@given(
    rps=st.floats(min_value=25.0, max_value=60.0),
    steal=st.booleans(),
)
def test_region_never_dispatches_to_ineligible_replica(rps, steal):
    trace = _trace(rps)
    violations = []

    def guard(cluster, shard):
        original = cluster._submit

        def wrapped(request):
            index = original(request)
            if not cluster._is_eligible[index]:
                violations.append((shard, index, request.request_id))
            return index

        cluster._submit = wrapped

    region = ServingRegion.build(
        "chameleon", n_replicas=2, registry=_registry(), seed=5,
        engine_config=EngineConfig(max_batch_size=4),
        region=RegionConfig(n_shards=3, spill=True, steal=steal))
    for shard, system in enumerate(region.systems):
        guard(system.cluster, shard)
    cluster = region.systems[0].cluster
    region.sim.schedule_at(3.0, cluster.stall_replica, 0, 2.0)
    region.sim.schedule_at(5.0, cluster.drain_replica, 1)
    region.run_trace(trace.fresh())
    assert not violations


# --------------------------------------------------------------------- #
# 1-shard region == bare MultiReplicaSystem, bit for bit
# --------------------------------------------------------------------- #
def _fingerprint(system):
    stats = system.cluster.stats
    return {
        "per_engine": [
            [r.request_id for r in engine.all_requests]
            for engine in system.engines
        ],
        "dispatched": stats.dispatched,
        "queued": stats.queued,
        "shed": stats.shed,
        "queue_delays": list(stats.queue_delays),
        "ttfts": sorted(
            (r.request_id, r.ttft)
            for r in system.all_requests()
            if r.first_token_time is not None
        ),
    }


@pytest.mark.parametrize("policy", ("least_loaded", "p2c", "token_weighted"))
def test_one_shard_region_is_bare_system(policy):
    trace = _trace(30.0, duration=12.0)
    region = _build_region(trace, n_shards=1, spill=True, steal=True,
                           dispatch_policy=policy)
    bare = MultiReplicaSystem.build(
        "chameleon", n_replicas=2, dispatch_policy=policy,
        registry=_registry(), seed=5,
        engine_config=EngineConfig(max_batch_size=4))
    bare.run_trace(trace.fresh())
    assert _fingerprint(region.systems[0]) == _fingerprint(bare)
    assert region.sim.processed_events == bare.sim.processed_events
    assert region.stats.cross_shard_spills == 0
    assert region.stats.steals == 0


# --------------------------------------------------------------------- #
# Per-shard autoscaling
# --------------------------------------------------------------------- #
def test_region_autoscalers_respect_shared_budget():
    """Each shard's controller holds at most its own ``max_replicas`` GPUs
    at every second of the run, and the load does make them scale out."""
    trace = _trace(45.0, duration=20.0)
    region = ServingRegion.build(
        "chameleon", registry=_registry(), seed=5,
        engine_config=EngineConfig(max_batch_size=4),
        autoscale=AutoscaleConfig(
            min_replicas=1, max_replicas=3, tick_interval=2.0,
            provision_delay=1.0, sustain_ticks=1, cooldown=2.0,
            queue_wait_threshold=0.5),
        region=RegionConfig(n_shards=2),
    )
    over = []

    def check():
        for index, system in enumerate(region.systems):
            if system.cluster.holding_count() > \
                    system.autoscaler.config.max_replicas:
                over.append((region.sim.now, index))

    for t in range(1, 21):
        region.sim.schedule_at(float(t), check)
    region.run_trace(trace.fresh())
    check()
    assert not over, f"a shard held more GPUs than its max_replicas: {over}"
    scale_outs = sum(s.autoscaler.scale_out_count for s in region.systems)
    assert scale_outs > 0, "the load never triggered a scale-out"
