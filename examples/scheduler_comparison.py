#!/usr/bin/env python
"""Scheduling-policy shootout on a bursty multi-tenant workload.

Motivating scenario from the paper's introduction: one inference cluster
serves chat-bot, coding and summarization tenants, whose requests differ
wildly in input/output length and adapter rank.  We compare four
iteration-level schedulers — FIFO, chunked-prefill FIFO, speculative SJF,
and Chameleon's multi-level queue — on tail latency *per request class*,
showing FIFO's head-of-line blocking and SJF's starvation directly.

Run:  python examples/scheduler_comparison.py
"""

import numpy as np

from repro import build_system, synthesize_trace
from repro.adapters import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.sim.rng import RngStreams
from repro.workload.trace import TraceProfile

POLICIES = {
    "FIFO (S-LoRA)": "slora",
    "Chunked prefill": "slora_chunked",
    "SJF (uServe)": "slora_sjf",
    "Chameleon MLQ": "chameleon_nocache",   # scheduler only: fair comparison
}

# A mixed-tenant profile: heavier tail than the default conversation trace.
MIXED_PROFILE = TraceProfile(
    name="mixed-tenants",
    mean_input_tokens=220.0, mean_output_tokens=24.0,
    input_sigma=1.3, output_sigma=1.3,
    max_input_tokens=4096, max_output_tokens=1024,
)


def size_class(request) -> str:
    tokens = request.input_tokens + request.output_tokens
    if tokens < 200:
        return "small"
    if tokens < 1200:
        return "medium"
    return "large"


def main() -> None:
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    rng = RngStreams(seed=7)
    trace = synthesize_trace(MIXED_PROFILE, rps=10.0, duration=300.0,
                             rng=rng.get("trace"), registry=registry)
    print(f"{len(trace)} requests; class mix:",
          {c: sum(1 for r in trace if size_class(r) == c)
           for c in ("small", "medium", "large")})

    header = f"{'policy':18s} {'class':7s} {'P50 wait':>9s} {'P99 wait':>9s} {'P99 TTFT':>9s}"
    print("\n" + header)
    print("-" * len(header))
    for name, preset in POLICIES.items():
        system = build_system(preset, registry=registry,
                              profile=MIXED_PROFILE, seed=7)
        system.run_trace(trace.fresh())
        done = [r for r in system.all_requests()
                if r.finished and r.arrival_time > 30.0]
        for cls in ("small", "medium", "large"):
            members = [r for r in done if size_class(r) == cls]
            waits = [r.queueing_delay for r in members]
            ttfts = [r.ttft for r in members]
            print(f"{name:18s} {cls:7s} "
                  f"{np.percentile(waits, 50) * 1e3:8.0f}ms "
                  f"{np.percentile(waits, 99) * 1e3:8.0f}ms "
                  f"{np.percentile(ttfts, 99) * 1e3:8.0f}ms")
        print()


if __name__ == "__main__":
    main()
