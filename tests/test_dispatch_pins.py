"""Golden digests of what the global dispatcher did, configuration by
configuration.

perfbench's digests cover two workloads and only first-token and finish
times.  These pins cover every admission path of
:class:`~repro.hardware.cluster.DataParallelCluster`: each routing policy
under cluster queueing, SLO shedding and deprioritizing, stalls, drains
and crashes with migration, force-submission (``backpressure=False``), a
horizon that stops a backlogged run, a tenancy-off region with spill and
steal, and a tenant-fair run with quotas, borrowing, shedding and a crash.

A run's fingerprint is the sha256 of, in order: every engine's submission
sequence (request ids in submit order, evacuated requests included), each
dispatcher's ``DispatchStats`` counters and its ``queue_delays`` as
``float.hex()``, each tenant book (tenancy runs only), every request's
TTFT as ``float.hex()`` in request-id order, the ids still waiting at the
cluster when the run stopped, and the simulator's processed-event count.

The constants were recorded before the dispatcher's anonymous FIFO was
folded into its lane path; an intended change to them is a re-baseline and
needs a CHANGES.md line.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.hardware.cluster import DataParallelCluster
from repro.llm.model import LLAMA_7B
from repro.serving.admission import SloPolicy, TenantFairnessPolicy
from repro.serving.engine import EngineConfig
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.tenants import DEFAULT_SLO_CLASSES, TenantPopulation
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

STAT_COUNTERS = (
    "arrivals", "dispatched", "finishes", "queued", "spills", "shed",
    "deprioritized", "failures", "stalls", "migrations", "lost", "donated",
    "stolen")
BOOK_COUNTERS = (
    "submitted", "admitted", "queued", "shed", "deprioritized", "throttled",
    "borrowed", "donated", "stolen", "lost")

POLICY_DIGESTS = {
    "least_loaded": (
        "367f3568322460435ec0b2ce0f34630c89cfcb2ec4802f62e0d3ddcf4bf28a36"),
    "round_robin": (
        "c3a67f40b8fec193dc0ab94b15143b5c3571b4e1cd1f84fd9e4133160b247060"),
    "adapter_affinity": (
        "57ccbf79dd385fcd8f046c92c47eb867870538cca393fe218587735b1e76fa54"),
    "p2c": (
        "d67bc75e3421b94e363d2cb184ae435851430298c45ee4710d03370b172406e7"),
    "token_weighted": (
        "44ffd138379b01c98c9619bcc59b03017f1f0c66130920d87591fa2285ee6460"),
    "bounded_affinity": (
        "dbfe81121037eae639306bded6abe234f4118ce51ccdc150e4c66c1f896de8b4"),
}
SLO_SHED_DIGEST = (
    "689a8eb6aa7b689c30811736a3c172b16e3c1357aa5075affb6b02a579eb6012")
SLO_DEPRIORITIZE_DIGEST = (
    "3e1fb1d39d08befa6e65f6606a3201e9252f577afe5ca81a18c3aa0ee38338a3")
FAULTS_DIGEST = (
    "1afd4c142fef23f38768442d99ddd3d97fcad1e054b1b20220bcdff039f5a305")
NO_BACKPRESSURE_STALL_DIGEST = (
    "bda9f4b0e375b3f6c9d83d70e2c451205341e707bc84b051a604f6c71ccd7f17")
HORIZON_BACKLOG_DIGEST = (
    "42072e6f957501cba90b1dd5f4ea17beef3bf154e5dcf7725466f46906c2afb8")
REGION_SPILL_STEAL_DIGEST = (
    "3269467f678c563977cc9064474a9e7e4cbc311d4593a82a557a7867af07fa37")
TENANT_QUOTA_DIGEST = (
    "21223ab32fe3e7011d0677abd8a5e9ffa9a233a96bbee462b84e17ac06bfe90b")


def _registry():
    return AdapterRegistry.build(LLAMA_7B, 20)


def _trace(rps: float, duration: float, **burst):
    registry = _registry()
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=duration,
                             rng=RngStreams(3).get("trace"),
                             registry=registry, **burst)
    return trace, registry


def _record_submits(engines) -> list:
    """Wrap each engine's ``submit`` to log request ids in submit order."""
    logs = []
    for engine in engines:
        log: list = []
        submit = engine.submit

        def recording(request, _submit=submit, _log=log):
            _log.append(request.request_id)
            return _submit(request)

        engine.submit = recording
        logs.append(log)
    return logs


def fingerprint(clusters, submit_logs, requests, sim, *, books=True) -> str:
    """sha256 of one run as the module docstring describes.  ``books=False``
    leaves the tenant books out, so a tenant-fair run can be compared with
    a tenancy-off run of the same trace."""
    h = hashlib.sha256()

    def put(*fields) -> None:
        h.update(repr(fields).encode() + b"\n")

    for index, log in enumerate(submit_logs):
        put("engine", index, log)
    for cluster in clusters:
        stats = cluster.stats
        put("stats", [getattr(stats, name) for name in STAT_COUNTERS])
        put("queue_delays", [delay.hex() for delay in stats.queue_delays])
        if books:
            for key, book in stats.tenants.items():
                put("book", key, [getattr(book, name)
                                  for name in BOOK_COUNTERS],
                    book.virtual_time.hex(), book.weight.hex())
        put("pending", [r.request_id for r in cluster.pending_requests()])
    put("ttft", [
        (r.request_id,
         r.ttft.hex() if r.first_token_time is not None else None)
        for r in sorted(requests, key=lambda r: r.request_id)])
    put("events", sim.processed_events)
    return h.hexdigest()


def _run_system(trace, horizon=None, before_run=None, **build):
    system = MultiReplicaSystem.build("chameleon", seed=7, **build)
    logs = _record_submits(system.engines)
    if before_run is not None:
        before_run(system)
    system.run_trace(trace.fresh(), horizon=horizon)
    return system, fingerprint([system.cluster], logs,
                               system.all_requests(), system.sim)


@pytest.mark.parametrize("policy", DataParallelCluster.POLICIES)
def test_policy_under_cluster_queueing(policy):
    """Short 4x bursts: queueing inside each burst, idle replicas between
    them (so the affinity pick and the spill bound both get exercised)."""
    trace, registry = _trace(rps=4.0, duration=40.0, burst_factor=4.0,
                             burst_fraction=0.3, burst_cycle=10.0)
    system, digest = _run_system(
        trace, n_replicas=3, dispatch_policy=policy, registry=registry,
        engine_config=EngineConfig(max_batch_size=4))
    assert system.cluster.stats.queued > 0
    if policy == "bounded_affinity":
        assert system.cluster.stats.spills > 0
    assert digest == POLICY_DIGESTS[policy]


def test_slo_shed():
    trace, registry = _trace(rps=9.0, duration=20.0)
    system, digest = _run_system(
        trace, n_replicas=3, registry=registry,
        engine_config=EngineConfig(max_batch_size=4),
        slo_policy=SloPolicy(ttft_deadline=4.0, mode="shed"))
    stats = system.cluster.stats
    assert stats.shed > 0 and stats.queued > 0
    assert digest == SLO_SHED_DIGEST


def test_slo_deprioritize_low_lane_drains_after_main_lane():
    trace, registry = _trace(rps=9.0, duration=20.0)
    system, digest = _run_system(
        trace, n_replicas=3, registry=registry,
        engine_config=EngineConfig(max_batch_size=4),
        slo_policy=SloPolicy(ttft_deadline=4.0, mode="deprioritize"))
    low = [r for r in system.all_requests() if r.deprioritized]
    assert low and all(r.finished for r in low)
    assert system.cluster.stats.queued > len(low)
    assert digest == SLO_DEPRIORITIZE_DIGEST


def test_stall_drain_with_migration_and_crash():
    trace, registry = _trace(rps=9.0, duration=20.0)

    def drain_at_eight(system):
        system.sim.schedule_at(8.0, functools.partial(
            system.cluster.drain_replica, 2, migrate=True))

    system, digest = _run_system(
        trace, n_replicas=4, registry=registry,
        engine_config=EngineConfig(max_batch_size=4),
        fault_schedule="4:stall:1:6,10:crash:0", before_run=drain_at_eight)
    stats = system.cluster.stats
    assert stats.stalls == 1 and stats.failures == 1
    assert stats.migrations > 0 and stats.queued > 0
    assert digest == FAULTS_DIGEST


def test_no_backpressure_every_replica_stalled():
    """Force-submission, but with every replica stalled at once there is
    nowhere to submit: arrivals wait at the cluster and drain when the
    stall ends."""
    trace, registry = _trace(rps=9.0, duration=20.0)
    system, digest = _run_system(
        trace, n_replicas=3, registry=registry, backpressure=False,
        engine_config=EngineConfig(max_batch_size=4),
        fault_schedule="5:stall:0:4,5:stall:1:4,5:stall:2:4")
    stats = system.cluster.stats
    assert stats.stalls == 3 and stats.queued > 0
    assert system.cluster.queue_len() == 0
    assert digest == NO_BACKPRESSURE_STALL_DIGEST


def test_horizon_stop_with_backlog():
    trace, registry = _trace(rps=9.0, duration=20.0)
    system, digest = _run_system(
        trace, horizon=15.0, n_replicas=3, registry=registry,
        engine_config=EngineConfig(max_batch_size=4))
    assert system.cluster.pending_requests()
    assert digest == HORIZON_BACKLOG_DIGEST


def test_tenancy_off_region_spill_and_steal():
    trace, registry = _trace(rps=14.0, duration=20.0)
    region = ServingRegion.build(
        "chameleon", n_replicas=2, registry=registry, seed=7,
        engine_config=EngineConfig(max_batch_size=4),
        region=RegionConfig(n_shards=2, spill=True, steal=True))
    logs = _record_submits([e for s in region.systems for e in s.engines])
    region.run_trace(trace.fresh())
    assert region.stats.cross_shard_spills > 0 and region.stats.steals > 0
    digest = fingerprint([s.cluster for s in region.systems], logs,
                         region.all_requests(), region.sim)
    digest = hashlib.sha256(
        f"{digest}{region.stats.routed}{region.stats.cross_shard_spills}"
        f"{region.stats.steals}".encode()).hexdigest()
    assert digest == REGION_SPILL_STEAL_DIGEST


def test_tenant_quotas_borrowing_shedding_and_a_crash():
    """The crash strands the dead replica's work (``fault_migrate=False``),
    booked ``lost`` on its tenants' ledgers."""
    population = TenantPopulation.build(4, skew=1.2)
    registry = _registry()
    trace = population.synthesize(rps=10.0, duration=20.0,
                                  rng=RngStreams(3).get("trace"),
                                  registry=registry)
    tenancy = TenantFairnessPolicy.from_shares(
        population.shares(), capacity_rps=6.0, classes=DEFAULT_SLO_CLASSES,
        quota_burst=2.0)
    system, digest = _run_system(
        trace, n_replicas=3, registry=registry,
        engine_config=EngineConfig(max_batch_size=4), tenancy=tenancy,
        slo_policy=SloPolicy(ttft_deadline=6.0, mode="shed",
                             classes=DEFAULT_SLO_CLASSES),
        fault_schedule="8:crash:1", fault_migrate=False)
    books = system.cluster.stats.tenants.values()
    assert sum(b.borrowed for b in books) > 0
    assert sum(b.throttled for b in books) > 0
    assert sum(b.shed for b in books) > 0
    assert sum(b.lost for b in books) > 0
    assert digest == TENANT_QUOTA_DIGEST


@pytest.mark.xfail(strict=True, reason=(
    "DRR sweep defect: in `_fair_step` a lane whose open visit has spent "
    "its deficit uses up the sweep's only step, so with one backlogged "
    "lane the drain stops beside free slots (backlog sits next to a "
    "replica with headroom after 1,691 of 1,708 finish events; p50 TTFT "
    "70.98 s against 68.11 s with tenancy off)"))
def test_one_uncapped_tenant_dispatches_like_tenancy_off():
    """One tenant with no quota has nothing to be fair against, so DRR
    must serve its lane exactly as the tenancy-off FIFO does."""
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=40.0, duration=30.0,
                             rng=RngStreams(0).get("trace"),
                             registry=registry)
    for request in trace.requests:
        request.tenant_id = 0
    digests = []
    for tenancy in (None, TenantFairnessPolicy()):
        system = MultiReplicaSystem.build(
            "chameleon", n_replicas=4, registry=registry, seed=0,
            engine_config=EngineConfig(max_batch_size=4), tenancy=tenancy)
        logs = _record_submits(system.engines)
        system.run_trace(trace.fresh())
        digests.append(fingerprint([system.cluster], logs,
                                   system.all_requests(), system.sim,
                                   books=False))
    assert digests[1] == digests[0]
