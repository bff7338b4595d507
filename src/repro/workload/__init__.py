"""Workload model: requests, length/popularity distributions, trace synthesis."""

from repro.workload.request import Request, RequestState
from repro.workload.distributions import (
    zipf_weights,
    sample_lognormal_lengths,
)
from repro.workload.io import (
    TraceStatistics,
    load_trace,
    save_trace,
    trace_statistics,
)
from repro.workload.tenants import (
    DEFAULT_SLO_CLASSES,
    SloClass,
    TenantPopulation,
    TenantSpec,
    inject_hot_tenant_storm,
)
from repro.workload.trace import (
    TraceProfile,
    Trace,
    SPLITWISE_PROFILE,
    WILDCHAT_PROFILE,
    LMSYS_PROFILE,
    TRACE_PROFILES,
    synthesize_trace,
    assign_adapters,
)

__all__ = [
    "Request",
    "RequestState",
    "zipf_weights",
    "sample_lognormal_lengths",
    "TraceProfile",
    "Trace",
    "SPLITWISE_PROFILE",
    "WILDCHAT_PROFILE",
    "LMSYS_PROFILE",
    "TRACE_PROFILES",
    "synthesize_trace",
    "assign_adapters",
    "TraceStatistics",
    "load_trace",
    "save_trace",
    "trace_statistics",
    "SloClass",
    "TenantSpec",
    "TenantPopulation",
    "DEFAULT_SLO_CLASSES",
    "inject_hot_tenant_storm",
]
