#!/usr/bin/env python
"""Quickstart: serve a many-adapter workload with Chameleon vs S-LoRA.

Builds the paper's default environment — Llama-7B on an A40-48GB, 100 LoRA
adapters over ranks {8..128} with power-law popularity — replays the same
synthetic production trace through both systems, and prints the latency
comparison plus cache statistics.

Run:  python examples/quickstart.py
"""

from repro import SPLITWISE_PROFILE, build_system, synthesize_trace
from repro.adapters import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.sim.rng import RngStreams


def main() -> None:
    # 1. A pool of 100 adapters: equal counts of ranks 8/16/32/64/128.
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters=100)

    # 2. A Splitwise-like trace: 9 requests/s for five simulated minutes,
    #    heavy-tailed lengths, power-law adapter popularity.
    rng = RngStreams(seed=42)
    trace = synthesize_trace(
        SPLITWISE_PROFILE, rps=9.0, duration=300.0,
        rng=rng.get("trace"), registry=registry,
    )
    print(f"trace: {len(trace)} requests, "
          f"mean input {trace.mean_input_tokens:.0f} tokens, "
          f"mean output {trace.mean_output_tokens:.0f} tokens")

    # 3. Replay the same trace against both systems (paired comparison).
    for preset in ("slora", "chameleon"):
        system = build_system(preset, registry=registry, seed=42)
        system.run_trace(trace.fresh())
        summary = system.summary(warmup=30.0)
        replica = system.replicas[0]  # the system's one engine and its parts
        stats = replica.adapter_manager.stats
        print(f"\n=== {preset} ===")
        print(f"  P50 TTFT: {summary.p50_ttft * 1e3:8.1f} ms")
        print(f"  P99 TTFT: {summary.p99_ttft * 1e3:8.1f} ms")
        print(f"  P99 TBT:  {summary.p99_tbt * 1e3:8.1f} ms")
        print(f"  adapter cache hit rate: {stats.hit_rate * 100:.1f}%")
        print(f"  adapter bytes moved over PCIe: "
              f"{replica.link.total_bytes_moved / 2**30:.1f} GiB")


if __name__ == "__main__":
    main()
