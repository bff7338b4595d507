#!/usr/bin/env python
"""Operator playbook: characterize, tune, validate, report.

The end-to-end workflow an operator adopting Chameleon would run:

1. **Capture** a day's traffic (here: synthesize one) and persist it.
2. **Characterize** it: length percentiles, adapter skew, effective rate.
3. **Tune** the cache's eviction weights offline on the captured trace
   (the §4.2.2 profiling procedure).
4. **Validate** the tuned system against S-LoRA on a held-out trace.
5. **Report**: write a markdown summary for the team.

Run:  python examples/operator_playbook.py   (writes into ./playbook_out/)
"""

from pathlib import Path

from repro import SPLITWISE_PROFILE, build_system, synthesize_trace
from repro.adapters import AdapterRegistry
from repro.core.eviction import ChameleonScorePolicy
from repro.core.tuning import profile_eviction_weights
from repro.experiments.common import ExperimentResult
from repro.experiments.report import render_markdown
from repro.llm.model import LLAMA_7B
from repro.sim.rng import RngStreams
from repro.workload.io import load_trace, save_trace, trace_statistics

OUT_DIR = Path("playbook_out")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    registry = AdapterRegistry.build(LLAMA_7B, 200)

    # 1. Capture: yesterday's traffic, persisted for reproducibility.
    captured = synthesize_trace(
        SPLITWISE_PROFILE, rps=8.0, duration=240.0,
        rng=RngStreams(21).get("capture"), registry=registry,
    )
    trace_path = OUT_DIR / "captured_trace.json"
    save_trace(captured, trace_path)
    print(f"captured {len(captured)} requests -> {trace_path}")

    # 2. Characterize.
    stats = trace_statistics(load_trace(trace_path))
    print(f"  input p50/p99: {stats.p50_input_tokens:.0f}/{stats.p99_input_tokens:.0f} tokens")
    print(f"  output p50/p99: {stats.p50_output_tokens:.0f}/{stats.p99_output_tokens:.0f} tokens")
    print(f"  {stats.distinct_adapters} adapters seen; hottest takes "
          f"{stats.top_adapter_share:.1%} of traffic")

    # 3. Tune the eviction weights on the captured trace.
    tuning = profile_eviction_weights(captured, registry, grid_step=0.5, warmup=20.0)
    f_weight, r_weight, s_weight = tuning.weights
    print(f"tuned eviction weights: F={f_weight} R={r_weight} S={s_weight} "
          f"(P99 {tuning.best.p99_ttft:.2f}s over {len(tuning.candidates)} candidates)")

    # 4. Validate on a held-out trace.
    holdout = synthesize_trace(
        SPLITWISE_PROFILE, rps=9.0, duration=240.0,
        rng=RngStreams(22).get("holdout"), registry=registry,
    )
    rows = []
    for label, preset in (("S-LoRA", "slora"), ("Chameleon (tuned)", "chameleon")):
        system = build_system(preset, registry=registry, seed=22)
        replica = system.replicas[0]
        if label.startswith("Chameleon"):
            replica.adapter_manager.policy = ChameleonScorePolicy(
                f_weight=f_weight, r_weight=r_weight, s_weight=s_weight)
        system.run_trace(holdout.fresh())
        summary = system.summary(warmup=20.0)
        rows.append({
            "system": label,
            "p50_ttft_s": summary.p50_ttft,
            "p99_ttft_s": summary.p99_ttft,
            "hit_rate": replica.adapter_manager.stats.hit_rate,
            "pcie_gib": replica.link.total_bytes_moved / 2 ** 30,
        })
        print(f"  {label}: p99 {summary.p99_ttft:.2f}s, "
              f"hit rate {replica.adapter_manager.stats.hit_rate:.0%}")

    # 5. Report.
    result = ExperimentResult(
        experiment="playbook-validation",
        description="Held-out validation of tuned Chameleon vs S-LoRA",
        rows=rows,
        params={"holdout_rps": 9.0, "n_adapters": len(registry),
                "tuned_weights": list(tuning.weights)},
        notes=[f"trace statistics: {stats}"],
    )
    report_path = OUT_DIR / "REPORT.md"
    report_path.write_text(render_markdown([result], title="Chameleon rollout validation"))
    print(f"wrote {report_path}")


if __name__ == "__main__":
    main()
