"""Figure 16: average queueing delay per request size class and policy.

Requests are classified small/medium/large by their WRS (as Chameleon does);
delays are reported for S-LoRA's FIFO, SJF, and the Chameleon scheduler.
The paper: FIFO delays all classes roughly equally (28.6% of a short
request's E2E), SJF starves the large class (5.15 s vs 1.5 s), and the
Chameleon scheduler keeps every class's delay below 8% of its E2E.
"""

from __future__ import annotations

import numpy as np

from repro.core.wrs import WorkloadBounds, compute_wrs
from repro.experiments.common import (
    ExperimentResult,
    Row,
    run_preset,
    standard_registry,
    standard_trace,
)
from repro.workload.trace import SPLITWISE_PROFILE

#: The Chameleon scheduler is measured as deployed (full system), matching
#: the paper's Figure 16 where its per-class waits fall below 8% of E2E.
POLICIES = {"FIFO": "slora", "SJF": "slora_sjf", "ChameleonSched": "chameleon"}
CLASSES = ("small", "medium", "large")


def _classify(trace, registry):
    bounds = WorkloadBounds(
        max_input_tokens=SPLITWISE_PROFILE.max_input_tokens,
        max_output_tokens=SPLITWISE_PROFILE.max_output_tokens,
        max_adapter_bytes=registry.max_size_bytes,
    )
    sizes = {}
    for request in trace.requests:
        adapter_bytes = (registry.get(request.adapter_id).size_bytes
                         if request.adapter_id is not None else None)
        sizes[request.request_id] = compute_wrs(
            request.input_tokens, request.output_tokens, adapter_bytes, bounds)
    values = np.array(list(sizes.values()))
    cuts = np.quantile(values, [0.5, 0.9])

    def which(request_id):
        v = sizes[request_id]
        if v < cuts[0]:
            return "small"
        if v < cuts[1]:
            return "medium"
        return "large"

    return which


def run(
    rps: float = 10.0,
    duration: float = 240.0,
    warmup: float = 20.0,
    seed: int = 1,
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    which = _classify(trace, registry)
    rows = []
    notes = []
    for policy_name, preset in POLICIES.items():
        system, _ = run_preset(preset, trace, registry, warmup=warmup)
        buckets = {c: [] for c in CLASSES}
        e2e_share = {c: [] for c in CLASSES}
        for request in system.all_requests():
            if not request.finished or request.arrival_time < warmup:
                continue
            cls = which(request.request_id)
            # "Waiting to be scheduled" = arrival until the prefill actually
            # starts (includes admission wait, adapter wait, and the
            # per-iteration prefill budget wait).
            buckets[cls].append(request.service_wait)
            e2e_share[cls].append(request.service_wait / request.e2e_latency)
        row = Row(policy=policy_name)
        for cls in CLASSES:
            row[f"{cls}_delay_s"] = float(np.mean(buckets[cls])) if buckets[cls] else 0.0
            row[f"{cls}_e2e_share"] = (
                float(np.mean(e2e_share[cls])) if e2e_share[cls] else 0.0)
        rows.append(row)
        notes.append(
            f"{policy_name}: large/small delay ratio "
            f"{(row['large_delay_s'] / row['small_delay_s']) if row['small_delay_s'] else float('nan'):.1f}"
        )
    return ExperimentResult(
        experiment="fig16",
        description="Average queueing delay per size class and policy",
        rows=rows,
        params={"rps": rps, "duration": duration},
        notes=notes,
    )
