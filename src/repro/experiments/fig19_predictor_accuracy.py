"""Figure 19: sensitivity to the output-length predictor's accuracy.

WRS modes OutputOnly vs Chameleon at predictor accuracies 100/80/60%.
The paper: the full WRS (input + output + adapter) is robust — 80% accuracy
matches 100%; OutputOnly degrades visibly, especially during load bursts.
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

MODES = {"OutputOnly": "chameleon_outputonly", "Chameleon": "chameleon"}


def run(
    rps: float = 9.0,
    duration: float = 300.0,
    accuracies=(1.0, 0.8, 0.6),
    warmup: float = 20.0,
    window: float = 50.0,
    seed: int = 1,
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    rows = []
    for mode_name, preset in MODES.items():
        for accuracy in accuracies:
            system, summary = run_preset(
                preset, trace, registry, warmup=warmup,
                predictor_accuracy=accuracy,
            )
            predictor = system.replicas[0].predictor
            series = windowed_p99_ttft(system.all_requests(),
                                       window=window, horizon=duration)
            peak = max((v for _, v in series), default=float("nan"))
            rows.append(Row(
                mode=mode_name,
                accuracy=accuracy,
                p99_ttft_s=summary.p99_ttft,
                peak_window_p99_s=peak,
                observed_accuracy=predictor.observed_accuracy,
            ))
    return ExperimentResult(
        experiment="fig19",
        description="P99 TTFT vs output-length predictor accuracy "
                    "(OutputOnly vs full WRS)",
        rows=rows,
        params={"rps": rps, "duration": duration, "accuracies": list(accuracies)},
        notes=["paper: full WRS at 80% accuracy ~= oracle; OutputOnly is the "
               "sensitive configuration"],
    )
