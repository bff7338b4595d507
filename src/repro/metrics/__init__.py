"""Metrics: per-request summaries, percentiles, slowdown, SLO attainment."""

from repro.metrics.summary import (
    percentile,
    RunSummary,
    summarize_run,
    windowed_p99_ttft,
    slowdowns,
    throughput_under_slo,
    compute_slo,
    jain_fairness_index,
    tenant_breakdown,
)

__all__ = [
    "percentile",
    "RunSummary",
    "summarize_run",
    "windowed_p99_ttft",
    "slowdowns",
    "throughput_under_slo",
    "compute_slo",
    "jain_fairness_index",
    "tenant_breakdown",
]
