"""Chameleon reproduction: adaptive caching + scheduling for many-adapter LLM serving.

Public API quick reference::

    from repro import build_system, synthesize_trace, SPLITWISE_PROFILE
    from repro.adapters import AdapterRegistry
    from repro.sim import RngStreams

    rng = RngStreams(seed=0)
    registry = AdapterRegistry.build(model=..., n_adapters=100)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=8.0, duration=120.0,
                             rng=rng.get("trace"), registry=registry)
    system = build_system("chameleon", registry=registry)  # one replica
    system.run_trace(trace)
    print(system.summary())
    engine = system.replicas[0].engine

See ``examples/quickstart.py`` for a complete walkthrough and
``repro.experiments`` for the per-figure reproduction harness.
"""

from repro.systems import PRESETS, build_system, default_bounds
from repro.workload.trace import (
    LMSYS_PROFILE,
    SPLITWISE_PROFILE,
    TRACE_PROFILES,
    WILDCHAT_PROFILE,
    synthesize_trace,
)

__version__ = "1.0.0"

__all__ = [
    "PRESETS",
    "build_system",
    "default_bounds",
    "synthesize_trace",
    "SPLITWISE_PROFILE",
    "WILDCHAT_PROFILE",
    "LMSYS_PROFILE",
    "TRACE_PROFILES",
    "__version__",
]
