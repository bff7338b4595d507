"""Ablation: robustness of the headline result to the stall-cost model.

Our substrate models synchronous adapter copies stealing engine time at an
effective ``load_stall_bandwidth`` (``EngineConfig`` in ``serving/engine.py``).
The paper's testbed measures this implicitly; we sweep the assumption from
"copies are free" (None) to aggressive (1 GB/s).  The Chameleon-over-S-LoRA
P99 advantage comes from the stall charge: at full scale (9 RPS for 240 s,
seed 1) it reads 0.96x with free copies, so the scheduler and critical-path
effects alone do not produce it, then 1.47x, 3.18x, 7.36x and 12.27x at 6,
3, 1.5 and 1 GB/s, widening as copies get costlier (the caching effect).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Row,
    run_preset,
    standard_registry,
    standard_trace,
)
from repro.serving.engine import EngineConfig

GB = 1024 ** 3


def run(
    rps: float = 9.0,
    duration: float = 240.0,
    warmup: float = 20.0,
    seed: int = 1,
    bandwidths=(None, 6.0, 3.0, 1.5, 1.0),
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    rows = []
    for bw_gb in bandwidths:
        config = EngineConfig(
            load_stall_bandwidth=None if bw_gb is None else bw_gb * GB)
        p99 = {}
        for preset in ("slora", "chameleon"):
            _, summary = run_preset(preset, trace, registry, warmup=warmup,
                                    engine_config=config)
            p99[preset] = summary.p99_ttft
        rows.append(Row(
            stall_bw_gbs=("inf" if bw_gb is None else bw_gb),
            slora_p99_s=p99["slora"],
            chameleon_p99_s=p99["chameleon"],
            advantage=(p99["slora"] / p99["chameleon"]
                       if p99["chameleon"] else float("nan")),
        ))
    return ExperimentResult(
        experiment="abl_load_stall",
        description="Sensitivity of the Chameleon advantage to the "
                    "adapter-copy stall model",
        rows=rows,
        params={"rps": rps, "duration": duration,
                "bandwidths": [str(b) for b in bandwidths]},
        notes=["'inf' = fully asynchronous copies (no engine stall)"],
    )
