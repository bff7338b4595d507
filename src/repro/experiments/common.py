"""Shared experiment infrastructure: traces, runs, SLOs, result tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import A40_48GB, GpuSpec
from repro.hardware.pcie import PcieSpec
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B, ModelSpec
from repro.metrics.summary import RunSummary, compute_slo
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.systems import build_system
from repro.workload.trace import SPLITWISE_PROFILE, Trace, TraceProfile, synthesize_trace

Row = dict


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus run metadata."""

    experiment: str
    description: str
    rows: list[Row]
    params: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_table(self) -> str:
        """Render the rows as an aligned text table.

        Rows may be heterogeneous (e.g. two panels of one figure); the
        columns are the union in first-appearance order and missing cells
        render empty.
        """
        if not self.rows:
            return f"[{self.experiment}] (no rows)"
        columns: list = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        formatted = [[_fmt(row.get(c)) for c in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(line[i]) for line in formatted))
            for i, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
        lines = [f"[{self.experiment}] {self.description}", header,
                 "  ".join("-" * w for w in widths)]
        for line in formatted:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# --------------------------------------------------------------------- #
# Standard workload / system construction
# --------------------------------------------------------------------- #
DEFAULT_N_ADAPTERS = 100


def standard_registry(
    model: ModelSpec = LLAMA_7B,
    n_adapters: int = DEFAULT_N_ADAPTERS,
    ranks=None,
) -> AdapterRegistry:
    if ranks is None:
        return AdapterRegistry.build(model, n_adapters)
    return AdapterRegistry.build(model, n_adapters, ranks=ranks)


def standard_trace(
    rps: float,
    duration: float,
    registry: Optional[AdapterRegistry],
    seed: int = 1,
    profile: TraceProfile = SPLITWISE_PROFILE,
    rank_popularity: str = "uniform",
    adapter_popularity: str = "powerlaw",
) -> Trace:
    """The paper's default workload (§5.1)."""
    rng = RngStreams(seed).get("trace")
    return synthesize_trace(
        profile, rps=rps, duration=duration, rng=rng, registry=registry,
        rank_popularity=rank_popularity, adapter_popularity=adapter_popularity,
    )


def trace_slo(
    trace: Trace,
    registry: Optional[AdapterRegistry],
    model: ModelSpec = LLAMA_7B,
    gpu: GpuSpec = A40_48GB,
    multiplier: float = 5.0,
    pcie: PcieSpec = PcieSpec(),
) -> float:
    """The paper's SLO: 5x the mean isolated execution time (§5.1)."""
    cost_model = CostModel(model, gpu)

    def rank_of(request):
        if request.adapter_id is None or registry is None:
            return None
        return registry.get(request.adapter_id).rank

    def load_time_of(request):
        if request.adapter_id is None or registry is None:
            return 0.0
        size = registry.get(request.adapter_id).size_bytes
        return pcie.setup_latency + size / pcie.bandwidth_bytes

    return compute_slo(trace.requests, cost_model, rank_of, load_time_of,
                       multiplier=multiplier)


def run_preset(
    preset: str,
    trace: Trace,
    registry: AdapterRegistry,
    warmup: float = 0.0,
    slo: Optional[float] = None,
    **build_kwargs,
) -> tuple[MultiReplicaSystem, RunSummary]:
    """Build a 1-replica system, replay the trace against it, summarize."""
    system = build_system(preset, registry=registry,
                          slo=slo if slo is not None else 5.0, **build_kwargs)
    system.run_trace(trace.fresh())
    summary = system.summary(warmup=warmup, slo_ttft=slo)
    return system, summary


def sweep_loads(
    presets: Sequence[str],
    loads: Sequence[float],
    duration: float,
    registry: AdapterRegistry,
    warmup: float,
    seed: int = 1,
    slo: Optional[float] = None,
    **build_kwargs,
) -> list[Row]:
    """One row per (load, preset) with the standard latency summary."""
    rows: list[Row] = []
    for rps in loads:
        trace = standard_trace(rps, duration, registry, seed=seed)
        row_slo = slo if slo is not None else trace_slo(trace, registry)
        for preset in presets:
            _, summary = run_preset(preset, trace, registry, warmup=warmup,
                                    slo=row_slo, **build_kwargs)
            rows.append(Row(
                rps=rps, preset=preset,
                p50_ttft_s=summary.p50_ttft,
                p99_ttft_s=summary.p99_ttft,
                p99_tbt_s=summary.p99_tbt,
                slo_s=row_slo,
                meets_slo=bool(summary.p99_ttft <= row_slo),
            ))
    return rows
