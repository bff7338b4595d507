"""Figure 4: normalized PCIe bandwidth vs load for 1/50/500 adapters.

Rank-32 adapters throughout; requests draw uniformly from the pool (as in the
paper's LoRA-N setup).  Bandwidth is normalized to LoRA-1 at the lowest load.
The paper's shape: consumption explodes with the number of distinct adapters
and with RPS, saturating the link for LoRA-500.
"""

from __future__ import annotations

from repro.adapters.registry import AdapterRegistry
from repro.experiments.common import ExperimentResult, Row, run_preset, standard_trace
from repro.llm.model import LLAMA_7B


def run(
    loads=(5.0, 6.0, 7.0, 8.0),
    pool_sizes=(1, 50, 500),
    duration: float = 120.0,
    seed: int = 1,
) -> ExperimentResult:
    results: dict[tuple, float] = {}
    for n_adapters in pool_sizes:
        registry = AdapterRegistry.build(LLAMA_7B, n_adapters, ranks=(32,))
        for rps in loads:
            trace = standard_trace(rps, duration, registry, seed=seed,
                                   adapter_popularity="uniform")
            system, _ = run_preset("slora", trace, registry,
                                   link_keep_log=True)
            results[(n_adapters, rps)] = (
                system.replicas[0].link.total_bytes_moved / duration)
    baseline = results[(pool_sizes[0], loads[0])] or 1.0
    rows = [
        Row(rps=rps,
            **{f"lora_{n}_norm_bw": results[(n, rps)] / baseline
               for n in pool_sizes})
        for rps in loads
    ]
    return ExperimentResult(
        experiment="fig04",
        description="Normalized PCIe bandwidth vs load for LoRA-1/50/500 "
                    "(S-LoRA, rank-32 adapters)",
        rows=rows,
        params={"loads": list(loads), "pool_sizes": list(pool_sizes),
                "duration": duration},
        notes=[f"normalized to LoRA-{pool_sizes[0]} at {loads[0]} RPS"],
    )
