"""The benchmark's workloads: each one turns a seed into a trace and a system.

Every workload is open-loop bursty (or plain) Poisson traffic at a stated
rate, replayed offline through the public entry points
(``MultiReplicaSystem.build`` / ``ServingRegion.build`` then ``run_trace`` and
``summary``).  The seed is the only input; the same seed gives the same trace
and the same system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.adapters.registry import AdapterRegistry
from repro.experiments.common import trace_slo
from repro.llm.model import LLAMA_7B
from repro.serving.admission import SloPolicy, TenantFairnessPolicy
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request
from repro.workload.tenants import (
    DEFAULT_SLO_CLASSES,
    TenantPopulation,
    inject_hot_tenant_storm,
)
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

System = Union[MultiReplicaSystem, ServingRegion]


@dataclass
class Inputs:
    """One seed's synthesized trace, the rule that decides whether a
    finished request met its TTFT deadline, and the build arguments the
    trace determines (adapter pool, MLQ SLO, admission policies)."""

    requests: list[Request]
    attained: Callable[[Request], bool]
    build_kwargs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    description: str
    synthesize: Callable[[int], Inputs]
    build: Callable[[int, Inputs], System]


def _deadline_rule(deadline: float) -> Callable[[Request], bool]:
    def attained(request: Request) -> bool:
        return request.finished and request.ttft <= deadline
    return attained


# --------------------------------------------------------------------- #
# paper-mlq: the paper's stack (chameleon preset: MLQ scheduler, adapter
# cache, cost-aware eviction) on 8 A40 replicas.
# --------------------------------------------------------------------- #
def _paper_trace(seed: int) -> Inputs:
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    trace = synthesize_trace(
        SPLITWISE_PROFILE, rps=88.0, duration=300.0,
        rng=RngStreams(seed).get("trace"), registry=registry)
    # The paper's SLO: 5x the mean isolated latency (§5.1).
    deadline = trace_slo(trace, registry)
    return Inputs(trace.requests, _deadline_rule(deadline),
                  {"registry": registry, "slo": deadline})


def _paper_system(seed: int, inputs: Inputs) -> System:
    return MultiReplicaSystem.build(
        "chameleon", n_replicas=8, dispatch_policy="token_weighted",
        seed=seed, **inputs.build_kwargs)


# --------------------------------------------------------------------- #
# tenant-region: 2 dispatcher shards x 4 chameleon replicas, tenant-keyed,
# spill + steal, DRR tenant lanes with token-bucket quotas, SLO shedding.
# --------------------------------------------------------------------- #
TENANT_RPS = 64.0
TENANTS = 6


def _tenant_trace(duration: float):
    def synthesize(seed: int) -> Inputs:
        registry = AdapterRegistry.build(LLAMA_7B, 100)
        streams = RngStreams(seed)
        population = TenantPopulation.build(TENANTS, skew=1.2)
        base = population.synthesize(
            rps=TENANT_RPS, duration=duration, rng=streams.get("trace"),
            registry=registry)
        # Tenant 0 storms at twice the base rate over the middle fifth.
        trace = inject_hot_tenant_storm(
            base, population, 0, storm_rps=2.0 * TENANT_RPS,
            start=0.4 * duration, storm_duration=0.2 * duration,
            rng=streams.get("storm"), registry=registry)
        deadline = trace_slo(base, registry)
        slo = SloPolicy(ttft_deadline=deadline, mode="shed",
                        classes=DEFAULT_SLO_CLASSES)
        tenancy = TenantFairnessPolicy.from_shares(
            population.shares(), capacity_rps=TENANT_RPS,
            classes=DEFAULT_SLO_CLASSES)
        return Inputs(trace.requests, slo.attained,
                      {"registry": registry, "slo": deadline,
                       "slo_policy": slo, "tenancy": tenancy})
    return synthesize


def _tenant_system(seed: int, inputs: Inputs) -> System:
    return ServingRegion.build(
        "chameleon", n_replicas=4, dispatch_policy="least_loaded", seed=seed,
        region=RegionConfig(n_shards=2, shard_key="tenant", spill=True,
                            steal=True),
        **inputs.build_kwargs)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-mlq",
        "chameleon x 8 A40, Splitwise, 100 power-law adapters, 88 RPS "
        "bursty Poisson, token_weighted dispatch",
        _paper_trace, _paper_system),
    Workload(
        "tenant-region",
        "2 shards x 4 chameleon, tenant-keyed, spill+steal, 6 Zipf(1.2) "
        "tenants, DRR lanes + quotas, SLO shed, 64 RPS with a 2x storm",
        _tenant_trace(300.0), _tenant_system),
)}
