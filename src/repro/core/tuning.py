"""Offline profiling of the eviction-score coefficients (§4.2.2).

The paper sets the compound-score weights (F, R, S) = (0.45, 0.10, 0.45) "by
offline profiling of industrial traces of inference requests combined with
adapter size distributions found in the literature".  This module implements
that profiling loop: replay a calibration trace against the full system for
every candidate weighting on a simplex grid and pick the weights minimizing
P99 TTFT (ties broken by mean TTFT).

Example::

    from repro.core.tuning import profile_eviction_weights
    best = profile_eviction_weights(trace, registry, grid_step=0.25)
    print(best.weights, best.p99_ttft)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adapters.registry import AdapterRegistry
from repro.core.eviction import ChameleonScorePolicy
from repro.workload.trace import Trace


@dataclass(frozen=True)
class WeightCandidate:
    """One profiled weighting and its measured latency."""

    weights: tuple[float, float, float]   # (F, R, S)
    p99_ttft: float
    mean_ttft: float
    hit_rate: float


@dataclass
class ProfilingResult:
    """Outcome of an offline profiling sweep."""

    best: WeightCandidate
    candidates: list[WeightCandidate]

    @property
    def weights(self) -> tuple[float, float, float]:
        return self.best.weights


def simplex_grid(step: float = 0.25) -> list[tuple[float, float, float]]:
    """All (F, R, S) weightings on the unit simplex with the given step."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must be in (0, 1], got {step}")
    n = round(1.0 / step)
    points = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            points.append((i * step, j * step, k * step))
    return points


def profile_eviction_weights(
    trace: Trace,
    registry: AdapterRegistry,
    grid_step: float = 0.25,
    candidates: Optional[Sequence[tuple[float, float, float]]] = None,
    warmup: float = 10.0,
    seed: int = 0,
    **build_kwargs,
) -> ProfilingResult:
    """Sweep (F, R, S) weightings over a calibration trace (see module doc).

    Extra keyword arguments go to :func:`repro.systems.build_system` (e.g. a
    different GPU or model).
    """
    from repro.systems import build_system  # local import: avoid cycle

    grid = list(candidates) if candidates is not None else simplex_grid(grid_step)
    if not grid:
        raise ValueError("no candidate weightings to profile")
    results = []
    for f_weight, r_weight, s_weight in grid:
        system = build_system("chameleon", registry=registry, seed=seed,
                              **build_kwargs)
        manager = system.replicas[0].adapter_manager
        manager.policy = ChameleonScorePolicy(
            f_weight=f_weight, r_weight=r_weight, s_weight=s_weight)
        system.run_trace(trace.fresh())
        summary = system.summary(warmup=warmup)
        results.append(WeightCandidate(
            weights=(f_weight, r_weight, s_weight),
            p99_ttft=summary.p99_ttft,
            mean_ttft=summary.mean_ttft,
            hit_rate=manager.stats.hit_rate,
        ))
    best = min(results, key=lambda c: (c.p99_ttft, c.mean_ttft))
    return ProfilingResult(best=best, candidates=results)
