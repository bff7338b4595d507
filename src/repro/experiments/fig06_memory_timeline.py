"""Figure 6: GPU memory usage over time under the production trace.

Replays a memory-scaled Splitwise-like trace and samples per-category GPU
memory.  The paper's observation: most of the time there is abundant idle
memory above BaseLLM+KVCache, but it collapses during load spikes — hence
the need for dynamic cache sizing.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Row,
    standard_registry,
    standard_trace,
)
from repro.hardware.gpu import GB
from repro.serving.engine import EngineConfig
from repro.systems import build_system


def run(
    rps: float = 9.0,
    duration: float = 300.0,
    sample_interval: float = 2.0,
    seed: int = 1,
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    config = EngineConfig(memory_telemetry_interval=sample_interval)
    system = build_system("chameleon", registry=registry, engine_config=config)
    system.run_trace(trace.fresh(), horizon=duration)
    gpu = system.replicas[0].gpu
    rows = []
    for sample in gpu.samples:
        base = sample.usage.get("weights", 0) + sample.usage.get("activations", 0)
        kv = sample.usage.get("kv", 0)
        adapters = sample.usage.get("adapter", 0) + sample.usage.get("adapter_cache", 0)
        rows.append(Row(
            time_s=sample.time,
            base_llm_gb=base / GB,
            base_plus_kv_gb=(base + kv) / GB,
            total_used_gb=(base + kv + adapters) / GB,
            idle_gb=(gpu.capacity - base - kv - adapters) / GB,
            capacity_gb=gpu.capacity / GB,
        ))
    idle = [r["idle_gb"] for r in rows] or [0.0]
    return ExperimentResult(
        experiment="fig06",
        description="GPU memory usage over time (Splitwise-like trace)",
        rows=rows,
        params={"rps": rps, "duration": duration,
                "sample_interval": sample_interval},
        notes=[f"idle memory: min {min(idle):.1f} GB, "
               f"median {sorted(idle)[len(idle) // 2]:.1f} GB — fluctuation "
               "motivates dynamic cache sizing"],
    )
