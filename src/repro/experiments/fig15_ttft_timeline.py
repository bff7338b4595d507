"""Figure 15: P99 TTFT over time for different scheduling policies at 9 RPS.

Windowed P99 series for S-LoRA (FIFO), S-LoRA+SJF, ChameleonNoCache (our
scheduler alone) and full Chameleon.  The paper: FIFO and SJF tails blow up
over time from queueing; the Chameleon scheduler keeps them flat; adding the
cache lowers them further.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Row,
    run_preset,
    standard_registry,
    standard_trace,
)
from repro.metrics.summary import windowed_p99_ttft

SYSTEMS = ("slora", "slora_sjf", "chameleon_nocache", "chameleon")


def run(
    rps: float = 9.0,
    duration: float = 400.0,
    window: float = 40.0,
    seed: int = 1,
    systems=SYSTEMS,
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    series = {}
    for preset in systems:
        system, _ = run_preset(preset, trace, registry)
        series[preset] = dict(windowed_p99_ttft(
            system.all_requests(), window=window, horizon=duration))
    times = sorted({t for s in series.values() for t in s})
    rows = [
        Row(time_s=t, **{f"{preset}_p99_s": series[preset].get(t) for preset in systems})
        for t in times
    ]
    return ExperimentResult(
        experiment="fig15",
        description=f"P99 TTFT over time at {rps} RPS by scheduling policy",
        rows=rows,
        params={"rps": rps, "duration": duration, "window": window},
        notes=["paper: FIFO tail = short requests blocked by long ones; "
               "SJF tail = long requests starved; Chameleon removes both"],
    )
