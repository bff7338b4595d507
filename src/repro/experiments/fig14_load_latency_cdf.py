"""Figure 14: CDF of adapter-loading latency on the critical path.

For every finished request, the time it spent admitted-but-blocked on its
adapter transfer.  The paper: 75% of Chameleon requests hit the cache (zero
loading), the rest pay <= ~6 ms; S-LoRA requests pay up to ~30 ms because
asynchronous prefetch cannot fully overlap under load.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    Row,
    run_preset,
    standard_registry,
    standard_trace,
)

PERCENTILES = (25, 50, 75, 90, 95, 99, 100)


def run(
    rps: float = 9.0,
    duration: float = 240.0,
    warmup: float = 20.0,
    seed: int = 1,
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    rows = []
    notes = []
    for preset in ("slora", "chameleon"):
        system, _ = run_preset(preset, trace, registry, warmup=warmup)
        latencies = [
            r.adapter_load_critical_path
            for r in system.all_requests()
            if r.finished and r.arrival_time >= warmup
        ]
        zero_share = float(np.mean([lat == 0.0 for lat in latencies]))
        row = Row(preset=preset, zero_load_share=zero_share)
        for p in PERCENTILES:
            row[f"p{p}_ms"] = float(np.percentile(latencies, p)) * 1e3
        rows.append(row)
        notes.append(f"{preset}: {zero_share * 100:.0f}% of requests pay zero "
                     "loading on the critical path")
    return ExperimentResult(
        experiment="fig14",
        description="Adapter-loading latency on the critical path (CDF points)",
        rows=rows,
        params={"rps": rps, "duration": duration},
        notes=notes + ["paper: 75% Chameleon cache-hit rate, loads <= ~6 ms; "
                       "S-LoRA loads up to ~30 ms"],
    )
