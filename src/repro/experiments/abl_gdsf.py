"""Ablation: Greedy-Dual-Size-Frequency vs the Chameleon score (§5.3.3).

The paper (text, no figure): "the P99 TTFT for high load (9.5 RPS) and
power-law adapter popularity for S-LoRA with the cache and eviction
algorithm of GDSF, is substantially worse than that of Chameleon", because
GDSF caches only the most popular adapters and aggressively evicts larger
adapters of moderate frequency.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Row,
    run_preset,
    standard_registry,
    standard_trace,
)

SYSTEMS = {"S-LoRA": "slora", "Ch-GDSF": "chameleon_gdsf", "Chameleon": "chameleon"}


def run(
    rps: float = 8.5,
    duration: float = 240.0,
    warmup: float = 20.0,
    seed: int = 1,
    n_adapters: int = 500,
) -> ExperimentResult:
    registry = standard_registry(n_adapters=n_adapters)
    trace = standard_trace(rps, duration, registry, seed=seed,
                           adapter_popularity="powerlaw")
    rows = []
    for name, preset in SYSTEMS.items():
        system, summary = run_preset(preset, trace, registry, warmup=warmup)
        stats = system.replicas[0].adapter_manager.stats
        rows.append(Row(
            system=name,
            p99_ttft_s=summary.p99_ttft,
            p50_ttft_s=summary.p50_ttft,
            hit_rate=stats.hit_rate,
            evicted_gb=stats.evicted_bytes / 2 ** 30,
        ))
    return ExperimentResult(
        experiment="abl_gdsf",
        description=f"GDSF vs Chameleon eviction @ {rps} RPS, power-law popularity",
        rows=rows,
        params={"rps": rps, "duration": duration},
        notes=["paper §5.3.3: GDSF is substantially worse than Chameleon "
               "in this configuration"],
    )
