"""Tenant-fairness invariants: conservation, quota ceilings, no starvation.

Property-based (hypothesis) checks over the weighted-fair dispatch stack
(:class:`~repro.serving.admission.TenantFairnessPolicy` +
:class:`~repro.hardware.cluster.DataParallelCluster` tenant lanes):

* **Per-tenant request conservation** — every tenant's ledger balances at
  any instant (``submitted + stolen == admitted + shed + donated +
  len(lane)``), the ledgers sum to the cluster-wide ``DispatchStats``
  twins, and at the trace level every tenant's requests are exactly
  accounted (finished / shed / lost / still pending) — across all six
  dispatch policies.
* **Quota ceilings** — a rate-capped tenant's non-borrowed admissions
  never exceed its token bucket's arithmetic bound (burst + rate x
  elapsed), storm or no storm.
* **DRR no-starvation** — while a tenant stays backlogged, the gap
  between its consecutive serves never exceeds one full deficit-round-
  robin round (everyone else's doubled quantum).
* **Region spill/steal** — the per-tenant books merged across shards
  conserve requests even while donations and thefts move lane entries
  between shards mid-run.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.hardware.cluster import DataParallelCluster
from repro.llm.model import LLAMA_7B
from repro.serving.admission import HEADROOM, SloPolicy, TenantFairnessPolicy
from repro.serving.engine import EngineConfig
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request
from repro.workload.tenants import DEFAULT_SLO_CLASSES, TenantPopulation

_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = AdapterRegistry.build(LLAMA_7B, 60)
    return _REGISTRY


def _population(n_tenants, skew=1.2):
    return TenantPopulation.build(n_tenants, skew=skew)


def _trace(population, rps, duration=12.0, seed=9):
    rng = RngStreams(seed).get("trace")
    return population.synthesize(rps=rps, duration=duration, rng=rng,
                                 registry=_registry())


def _tenancy(population, capacity_rps, burst=4.0):
    return TenantFairnessPolicy.from_shares(
        population.shares(), capacity_rps=capacity_rps,
        classes=DEFAULT_SLO_CLASSES, quota_burst=burst)


def _build(trace, tenancy, *, policy="least_loaded", slo=None, seed=5,
           n_replicas=2, max_batch=4):
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=n_replicas, dispatch_policy=policy,
        registry=_registry(), seed=seed, backpressure=True,
        engine_config=EngineConfig(max_batch_size=max_batch),
        slo_policy=slo, tenancy=tenancy)
    system.run_trace(trace.fresh(), horizon=trace.duration)
    return system


def _low_lane_count(cluster, key):
    return sum(1 for request, _ in cluster._low_queue
               if request.tenant_id == key)


def _assert_books_conserve(cluster, trace_requests=None):
    """The per-tenant ledger identities, plus the sums-to-stats twins."""
    stats = cluster.stats
    for key, book in stats.tenants.items():
        waiting = len(cluster._lanes[key].entries) \
            + _low_lane_count(cluster, key)
        assert book.submitted + book.stolen == \
            book.admitted + book.shed + book.donated + waiting, (key, book)
    # submitted counts offers through the front door (arrivals, including
    # fault re-offers); steals enter through accept_stolen and are booked
    # in the separate stolen column on both ledgers.
    assert sum(b.submitted for b in stats.tenants.values()) == stats.arrivals
    assert sum(b.shed for b in stats.tenants.values()) == stats.shed
    assert sum(b.stolen for b in stats.tenants.values()) == stats.stolen
    assert sum(b.donated for b in stats.tenants.values()) == stats.donated
    assert sum(b.deprioritized for b in stats.tenants.values()) \
        == stats.deprioritized
    assert sum(b.lost for b in stats.tenants.values()) == stats.lost
    if trace_requests is not None:
        by_tenant: dict = {}
        for r in trace_requests:
            by_tenant.setdefault(r.tenant_id, []).append(r)
        for tenant, mine in by_tenant.items():
            finished = sum(1 for r in mine if r.finished)
            shed = sum(1 for r in mine if r.shed)
            lost = sum(1 for r in mine if r.lost)
            pending = len(mine) - finished - shed - lost
            assert pending >= 0, (tenant, finished, shed, lost, len(mine))
            book = cluster.stats.tenants[tenant]
            assert shed == book.shed, (tenant, shed, book)


# --------------------------------------------------------------------- #
# Conservation, across every dispatch policy
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", DataParallelCluster.POLICIES)
def test_tenant_conservation_all_policies(policy):
    population = _population(4)
    trace = _trace(population, rps=30.0)
    slo = SloPolicy(ttft_deadline=2.0, mode="shed",
                    classes=DEFAULT_SLO_CLASSES)
    system = _build(trace, _tenancy(population, 30.0), policy=policy,
                    slo=slo)
    _assert_books_conserve(system.cluster, system.all_requests())


@settings(max_examples=10, deadline=None)
@given(
    n_tenants=st.integers(min_value=1, max_value=8),
    rps=st.floats(min_value=5.0, max_value=60.0),
    skew=st.floats(min_value=0.0, max_value=2.0),
    shed=st.booleans(),
)
def test_tenant_conservation_property(n_tenants, rps, skew, shed):
    population = _population(n_tenants, skew=skew)
    trace = _trace(population, rps=rps)
    slo = SloPolicy(ttft_deadline=2.0,
                    mode="shed" if shed else "deprioritize",
                    classes=DEFAULT_SLO_CLASSES)
    system = _build(trace, _tenancy(population, rps), slo=slo)
    _assert_books_conserve(system.cluster, system.all_requests())
    # Every admission was either in quota, borrowed, or a drained
    # deprioritized entry; nothing is double-counted.
    for book in system.cluster.stats.tenants.values():
        assert 0 <= book.borrowed <= book.admitted
        assert book.virtual_time >= 0.0


def test_tenant_conservation_with_faults():
    """Crash mid-run: migrated work re-offers, stranded work books lost."""
    population = _population(3)
    trace = _trace(population, rps=30.0, duration=15.0)
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, registry=_registry(), seed=5,
        backpressure=True, engine_config=EngineConfig(max_batch_size=4),
        tenancy=_tenancy(population, 30.0),
        fault_schedule="6:crash:1")
    system.run_trace(trace.fresh(), horizon=trace.duration)
    _assert_books_conserve(system.cluster)
    stats = system.cluster.stats
    assert stats.failures == 1
    # A crash re-offers (or strands) work: the books absorbed it.
    assert sum(b.submitted for b in stats.tenants.values()) == stats.arrivals


# --------------------------------------------------------------------- #
# Quota ceilings
# --------------------------------------------------------------------- #
@settings(max_examples=10, deadline=None)
@given(
    rps=st.floats(min_value=20.0, max_value=80.0),
    burst=st.floats(min_value=1.0, max_value=8.0),
    cap_fraction=st.floats(min_value=0.3, max_value=1.0),
)
def test_quota_ceiling_never_exceeded(rps, burst, cap_fraction):
    """Non-borrowed admissions respect the token-bucket arithmetic bound.

    Quotas are set *below* the offered load (``cap_fraction`` < 1 of each
    tenant's share) so the buckets actually bind; the ceiling must hold
    for every tenant regardless.
    """
    population = _population(3)
    trace = _trace(population, rps=rps)
    tenancy = TenantFairnessPolicy.from_shares(
        population.shares(), capacity_rps=rps * cap_fraction / HEADROOM,
        classes=DEFAULT_SLO_CLASSES, quota_burst=burst)
    system = _build(trace, tenancy)
    elapsed = system.sim.now
    for key, book in system.cluster.stats.tenants.items():
        rate = tenancy.rate_for(key)
        if rate is None:
            continue
        ceiling = burst + rate * elapsed
        in_quota = book.admitted - book.borrowed - book.deprioritized
        assert in_quota <= ceiling + 1e-9, (key, in_quota, ceiling, book)


def test_borrowing_requires_idle_fleet():
    """With quotas far below load and a tiny busy fleet, the overflow is
    throttled — borrows happen only against measured slack, so the books
    show throttles once the fleet saturates."""
    population = _population(2, skew=0.0)
    trace = _trace(population, rps=60.0, duration=10.0)
    tenancy = TenantFairnessPolicy.from_shares(
        population.shares(), capacity_rps=3.0 / HEADROOM,
        classes=DEFAULT_SLO_CLASSES, quota_burst=1.0)
    system = _build(trace, tenancy, n_replicas=1, max_batch=2)
    books = system.cluster.stats.tenants
    assert sum(b.throttled for b in books.values()) > 0
    _assert_books_conserve(system.cluster)


def test_lane_backlog_is_pending_work():
    """A request parked in a tenant lane with nothing in flight is pending
    work, exactly as it would be in the anonymous FIFO: the autoscaler
    keeps ticking on ``has_pending_work`` after the last arrival."""
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=1, registry=_registry(), seed=5,
        tenancy=TenantFairnessPolicy())
    cluster = system.cluster
    cluster.stall_replica(0, 5.0)  # nowhere to submit
    request = Request(request_id=0, arrival_time=0.0, input_tokens=10,
                      output_tokens=2, tenant_id=3)
    assert cluster.dispatch(request) is None
    assert cluster.queue_len() == 1
    assert cluster.total_in_flight() == 0
    assert cluster.has_pending_work()


# --------------------------------------------------------------------- #
# DRR no-starvation
# --------------------------------------------------------------------- #
def test_drr_no_starvation_bound():
    """While a tenant stays backlogged, consecutive serves of that tenant
    are never separated by more than one full DRR round (the sum of every
    other lane's doubled quantum — deficits are capped at 2x)."""
    population = _population(6)  # classes gold/standard/batch, weights 4/2/1
    trace = _trace(population, rps=80.0, duration=10.0)
    tenancy = TenantFairnessPolicy(classes=DEFAULT_SLO_CLASSES)  # no caps
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=1, registry=_registry(), seed=5,
        backpressure=True, engine_config=EngineConfig(max_batch_size=2),
        tenancy=tenancy)
    cluster = system.cluster
    serve_order = []
    original = cluster._release

    def recording(entry):
        serve_order.append(entry[0].tenant_id)
        return original(entry)

    cluster._release = recording
    system.run_trace(trace.fresh(), horizon=trace.duration)
    assert serve_order, "overload must force lane queueing"
    # Replay the serve sequence against the known lane populations: a lane
    # is backlogged between its first and last serve (entries only leave a
    # lane by being served — no shedding, donation, or loss here).
    quanta = {key: cluster._lanes[key].book.weight
              for key in cluster._lane_ring}
    round_bound = sum(2.0 * q for q in quanta.values())
    last_seen = {}
    for i, tenant in enumerate(serve_order):
        if tenant in last_seen:
            gap = i - last_seen[tenant]
            assert gap <= round_bound, (tenant, gap, round_bound)
        last_seen[tenant] = i
    # Weighted shares: over the contended window the heavy class is served
    # at least as often as the light one.
    gold = sum(1 for t in serve_order
               if population.tenants[t].slo_class == "gold")
    batch = sum(1 for t in serve_order
                if population.tenants[t].slo_class == "batch")
    if batch:
        assert gold >= batch


# --------------------------------------------------------------------- #
# Region spill/steal interleavings
# --------------------------------------------------------------------- #
@settings(max_examples=8, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=3),
    rps=st.floats(min_value=20.0, max_value=60.0),
    spill=st.booleans(),
    steal=st.booleans(),
)
@example(
    n_shards=2,
    rps=20.0,
    spill=False,
    steal=True,
).via('discovered failure')
def test_region_tenant_books_conserve(n_shards, rps, spill, steal):
    population = _population(5)
    trace = _trace(population, rps=rps)
    region = ServingRegion.build(
        "chameleon", n_replicas=2, registry=_registry(), seed=5,
        engine_config=EngineConfig(max_batch_size=4),
        backpressure=True, tenancy=_tenancy(population, rps),
        region=RegionConfig(n_shards=n_shards, shard_key="tenant",
                            spill=spill, steal=steal))
    region.run_trace(trace.fresh(), horizon=trace.duration)
    # Each shard's books balance locally (steals/donations included) ...
    for system in region.systems:
        _assert_books_conserve(system.cluster)
    # ... and the merged region-wide ledger balances per tenant: donations
    # and thefts cancel once summed over every shard.
    merged: dict = {}
    for system in region.systems:
        cluster = system.cluster
        for key, book in cluster.stats.tenants.items():
            entry = merged.setdefault(
                key, {"submitted": 0, "stolen": 0, "admitted": 0,
                      "shed": 0, "donated": 0, "lane": 0})
            entry["submitted"] += book.submitted
            entry["stolen"] += book.stolen
            entry["admitted"] += book.admitted
            entry["shed"] += book.shed
            entry["donated"] += book.donated
            entry["lane"] += len(cluster._lanes[key].entries) \
                + _low_lane_count(cluster, key)
    for key, entry in merged.items():
        assert entry["submitted"] + entry["stolen"] == \
            entry["admitted"] + entry["shed"] + entry["donated"] + \
            entry["lane"], (key, entry)
        # Every donation is accepted synchronously by the thief, so the
        # per-tenant totals pair off exactly across the region.
        assert entry["donated"] == entry["stolen"], (key, entry)
    # Region summary exposes the merged tenant block.
    summary = region.summary(duration=trace.duration)
    assert len(summary.extra["tenant_ids"]) \
        == len(summary.extra["tenant_attainment"])
    assert summary.extra["tenant_fairness_jain"] == \
        summary.extra["tenant_fairness_jain"]  # not NaN under load


def test_stolen_work_charges_the_thief():
    """Cross-shard steals keep quota accounting: the thief charges its own
    bucket (or books a borrow), so the merged in-quota total stays inside
    the merged ceiling.  At 3 RPS with 8-slot engines one shard can admit
    while its sibling's queue reaches the steal threshold, so steals fire
    (two 2-slot shards at 50 RPS stay backlogged together and never
    steal)."""
    population = _population(4)
    trace = _trace(population, rps=3.0, duration=10.0)
    tenancy = _tenancy(population, 3.0, burst=2.0)
    region = ServingRegion.build(
        "chameleon", n_replicas=1, registry=_registry(), seed=5,
        engine_config=EngineConfig(max_batch_size=8),
        backpressure=True, tenancy=tenancy,
        region=RegionConfig(n_shards=2, shard_key="tenant",
                            spill=True, steal=True))
    region.run_trace(trace.fresh(), horizon=trace.duration)
    assert region.stats.steals > 0
    assert any(s.cluster.stats.stolen > 0 for s in region.systems)
    elapsed = region.sim.now
    for key in population.shares():
        rate = tenancy.rate_for(key)
        total_in_quota = sum(
            b.admitted - b.borrowed - b.deprioritized
            for b in (s.cluster.stats.tenants.get(key)
                      for s in region.systems) if b is not None)
        # Each shard holds an independent bucket for the tenant, so the
        # merged ceiling is one burst+rate*T per shard it appeared on.
        shards_seen = sum(
            1 for s in region.systems
            if key in s.cluster.stats.tenants)
        ceiling = shards_seen * (tenancy.quota_burst + rate * elapsed)
        assert total_in_quota <= ceiling + 1e-9, (key, total_in_quota)


def test_summary_tenant_block_is_internally_consistent():
    """The summary().extra tenant block: parallel lists aligned with
    tenant_ids, spread == max - min of attainment, Jain recomputable from
    the attainment list, counters matching the books."""
    from repro.metrics.summary import jain_fairness_index

    population = _population(4)
    trace = _trace(population, rps=30.0)
    system = _build(trace, _tenancy(population, 30.0))
    extra = system.summary(duration=trace.duration).extra

    ids = extra["tenant_ids"]
    assert ids == sorted(population.shares())
    for key in ("tenant_arrivals", "tenant_completed", "tenant_shed",
                "tenant_lost", "tenant_attainment", "tenant_quota_throttles",
                "tenant_quota_borrows", "tenant_virtual_time",
                "tenant_weights"):
        assert len(extra[key]) == len(ids), key

    attainment = [a for a in extra["tenant_attainment"] if a == a]
    assert extra["tenant_attainment_spread"] == pytest.approx(
        max(attainment) - min(attainment))
    assert extra["tenant_fairness_jain"] == pytest.approx(
        jain_fairness_index(attainment))
    books = system.cluster.stats.tenants
    assert extra["tenant_quota_throttles"] \
        == [books[t].throttled for t in ids]
    assert extra["tenant_quota_borrows"] == [books[t].borrowed for t in ids]
    class_of = {spec.tenant_id: spec.slo_class for spec in population.tenants}
    assert extra["tenant_weights"] \
        == [population.classes[class_of[t]].weight for t in ids]
    assert sum(extra["tenant_arrivals"]) == len(trace.requests)
