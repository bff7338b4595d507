"""Figure 8: CDF of per-request slowdown under different scheduling policies.

Slowdown = observed E2E latency / isolated E2E latency.  Policies: FIFO,
chunked-prefill FIFO, SJF, and the Chameleon scheduler (cache disabled so
only scheduling differs), at medium and high load.  The paper's shape: FIFO
and chunked-prefill punish the tail via HoL blocking, SJF punishes it via
starvation of long requests, Chameleon keeps the tail low.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    Row,
    run_preset,
    standard_registry,
    standard_trace,
    trace_slo,
)
from repro.metrics.summary import slowdowns

#: "Optimized Scheduling" is the §4 policy as deployed (the full system, as
#: in the paper's Figure 8); the three baselines run on the S-LoRA stack.
POLICIES = {
    "FIFO": "slora",
    "Chunk-Prefill": "slora_chunked",
    "SJF": "slora_sjf",
    "OptimizedSched": "chameleon",
}
PERCENTILES = (50, 75, 90, 95, 99)


def run(
    medium_rps: float = 8.0,
    high_rps: float = 11.0,
    duration: float = 240.0,
    warmup: float = 20.0,
    seed: int = 1,
) -> ExperimentResult:
    registry = standard_registry()
    rows = []
    for load_name, rps in (("medium", medium_rps), ("high", high_rps)):
        trace = standard_trace(rps, duration, registry, seed=seed)
        slo = trace_slo(trace, registry)
        for policy_name, preset in POLICIES.items():
            system, _ = run_preset(preset, trace, registry, warmup=warmup, slo=slo)
            replica = system.replicas[0]
            values = slowdowns(
                [r for r in system.all_requests()
                 if r.finished and r.arrival_time >= warmup],
                replica.cost_model,
                rank_of=replica.engine.request_rank,
                load_time_of=lambda r: 0.0,
            )
            row = Row(load=load_name, policy=policy_name,
                      mean_slowdown=float(np.mean(values)))
            for p in PERCENTILES:
                row[f"p{p}"] = float(np.percentile(values, p))
            rows.append(row)
    return ExperimentResult(
        experiment="fig08",
        description="Per-request slowdown by scheduling policy "
                    "(medium and high load)",
        rows=rows,
        params={"medium_rps": medium_rps, "high_rps": high_rps,
                "duration": duration},
        notes=["slowdown = E2E / isolated E2E; adapter loading excluded from "
               "the isolated denominator as in the paper's §3.3 setup"],
    )
