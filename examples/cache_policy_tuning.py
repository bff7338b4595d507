#!/usr/bin/env python
"""Tuning the adapter-cache eviction policy for a skewed tenant base.

Scenario: a serving operator hosts 200 adapters whose popularity is heavily
skewed (a few hot tenants, a long tail), and wants to know which eviction
policy to deploy and how sensitive the compound score's weights are.  We
sweep LRU, FairShare, GDSF and several (F, R, S) weightings of the Chameleon
score, reporting P99 TTFT, cache hit rate and PCIe traffic.

Run:  python examples/cache_policy_tuning.py
"""

from repro import SPLITWISE_PROFILE, build_system, synthesize_trace
from repro.adapters import AdapterRegistry
from repro.core.eviction import ChameleonScorePolicy
from repro.llm.model import LLAMA_7B
from repro.sim.rng import RngStreams

PRESET_POLICIES = {
    "LRU": "chameleon_lru",
    "FairShare": "chameleon_fairshare",
    "GDSF": "chameleon_gdsf",
    "Chameleon (tuned)": "chameleon",
}

#: Extra (F, R, S) weightings to probe the compound score's sensitivity.
WEIGHT_SWEEP = [
    (0.8, 0.1, 0.1),   # frequency-dominant
    (0.1, 0.8, 0.1),   # recency-dominant (LRU-like)
    (0.1, 0.1, 0.8),   # size-dominant (cost-only)
]


def report(name: str, system, summary) -> None:
    replica = system.replicas[0]
    stats = replica.adapter_manager.stats
    print(f"{name:22s} p99={summary.p99_ttft * 1e3:7.0f}ms "
          f"hit={stats.hit_rate * 100:5.1f}% "
          f"evictions={stats.evictions:5d} "
          f"pcie={replica.link.total_bytes_moved / 2**30:6.1f}GiB")


def main() -> None:
    registry = AdapterRegistry.build(LLAMA_7B, 200)
    rng = RngStreams(seed=11)
    trace = synthesize_trace(
        SPLITWISE_PROFILE, rps=9.0, duration=300.0,
        rng=rng.get("trace"), registry=registry,
        adapter_popularity="powerlaw", powerlaw_alpha=1.2,
    )
    print(f"{len(trace)} requests over {len(registry)} adapters "
          "(strong power-law popularity)\n")

    for name, preset in PRESET_POLICIES.items():
        system = build_system(preset, registry=registry, seed=11)
        system.run_trace(trace.fresh())
        report(name, system, system.summary(warmup=30.0))

    print("\ncompound-score weight sweep (F=frequency, R=recency, S=size):")
    for f_weight, r_weight, s_weight in WEIGHT_SWEEP:
        system = build_system("chameleon", registry=registry, seed=11)
        system.replicas[0].adapter_manager.policy = ChameleonScorePolicy(
            f_weight=f_weight, r_weight=r_weight, s_weight=s_weight)
        system.run_trace(trace.fresh())
        report(f"  F={f_weight} R={r_weight} S={s_weight}",
               system, system.summary(warmup=30.0))


if __name__ == "__main__":
    main()
