"""Multi-tenant workload model: Zipf tenant sizes, SLO classes, diurnal phases.

The paper's setting is inherently multi-tenant — thousands of adapters owned
by different customers share one serving fleet — but a single anonymous
request population cannot express *who* is hurt when the fleet saturates.
This module generates the tenant structure the fairness machinery needs:

* **Zipf tenant sizes** — tenant ``t`` owns a share of the aggregate arrival
  rate proportional to ``(t+1)**-skew`` (production tenant populations are
  heavy-headed: a few tenants dominate traffic).
* **SLO classes** — each tenant belongs to a named class (``gold`` /
  ``standard`` / ``batch`` by default) carrying a TTFT-deadline scale and
  a dispatch weight.  ``SloPolicy.classes`` consumes the deadline side,
  ``TenantFairnessPolicy`` the weight side.
* **Diurnal phases** — each tenant's bursts are offset within the burst
  cycle, so tenants peak at different times.  The aggregate keeps the cycle
  period, which is exactly the seasonality the ``ArrivalRateForecaster``'s
  phase histogram learns; the offsets are what make borrow-from-idle quotas
  meaningful (someone is always off-peak).

A 1-tenant population with zero phase offset drives :func:`synthesize_trace`
once with the same rng and arguments, so it reproduces the anonymous
generator *exactly* (same arrivals, lengths, adapters, request ids) with only
the tenant/class labels added — the differential suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.adapters.registry import AdapterRegistry
from repro.workload.request import Request
from repro.workload.trace import (
    SPLITWISE_PROFILE,
    Trace,
    TraceProfile,
    synthesize_trace,
)


@dataclass(frozen=True)
class SloClass:
    """One service class: deadline shape plus dispatch weight.

    Attributes:
        name: Class name carried on ``Request.slo_class``.
        deadline_scale: Multiplies the policy's base ``ttft_deadline`` (gold
            keeps the tight deadline; batch tolerates a long one).
        weight: Deficit-round-robin quantum of the class's tenants — the
            relative service share under contention.  Values below 1 are
            rounded up by the dispatcher so every lane drains each round.
    """

    name: str
    deadline_scale: float = 1.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline_scale <= 0:
            raise ValueError(
                f"deadline_scale must be > 0, got {self.deadline_scale}")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


#: Default three-class taxonomy: interactive gold traffic with the tight
#: deadline and the big dispatch share, standard traffic at twice the
#: deadline, throughput-oriented batch traffic at six times.
GOLD = SloClass("gold", deadline_scale=1.0, weight=4.0)
STANDARD = SloClass("standard", deadline_scale=2.0, weight=2.0)
BATCH = SloClass("batch", deadline_scale=6.0, weight=1.0)
DEFAULT_SLO_CLASSES: dict[str, SloClass] = {
    c.name: c for c in (GOLD, STANDARD, BATCH)
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its traffic share, service class, and diurnal phase."""

    tenant_id: int
    share: float
    slo_class: str = "standard"
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.share <= 0:
            raise ValueError(f"share must be > 0, got {self.share}")


@dataclass(frozen=True)
class TenantPopulation:
    """A fixed tenant roster that synthesizes per-tenant request streams."""

    tenants: tuple[TenantSpec, ...]
    classes: dict[str, SloClass] = field(
        default_factory=lambda: dict(DEFAULT_SLO_CLASSES))

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("population needs at least one tenant")
        seen = set()
        for spec in self.tenants:
            if spec.tenant_id in seen:
                raise ValueError(f"duplicate tenant_id {spec.tenant_id}")
            seen.add(spec.tenant_id)
            if spec.slo_class not in self.classes:
                raise ValueError(
                    f"tenant {spec.tenant_id} has unknown class "
                    f"{spec.slo_class!r}; known: {sorted(self.classes)}")

    @classmethod
    def build(
        cls,
        n_tenants: int,
        skew: float = 1.2,
        class_cycle: Sequence[str] = ("gold", "standard", "batch"),
        classes: Optional[dict[str, SloClass]] = None,
        phase_cycle: Optional[float] = None,
    ) -> "TenantPopulation":
        """Standard roster: Zipf(skew) shares, classes round-robin by size.

        Tenant 0 is the biggest tenant.  Classes are dealt round-robin down
        the size ranking so every class contains both big and small tenants.
        When ``phase_cycle`` is set (seconds — normally the trace's burst
        cycle), tenant bursts are staggered evenly across it; tenant 0 keeps
        phase 0 so a 1-tenant population stays identical to the anonymous
        generator.
        """
        if n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {n_tenants}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        if not class_cycle:
            raise ValueError("class_cycle must not be empty")
        class_map = dict(DEFAULT_SLO_CLASSES) if classes is None else classes
        # Same normalized-Zipf form as distributions.zipf_weights; spelled
        # out so skew=0 degrades to exactly-uniform shares.
        raw = np.arange(1, n_tenants + 1, dtype=float) ** (-skew)
        shares = raw / raw.sum()
        specs = tuple(
            TenantSpec(
                tenant_id=t,
                share=float(shares[t]),
                slo_class=class_cycle[t % len(class_cycle)],
                phase=(phase_cycle * t / n_tenants) if phase_cycle else 0.0,
            )
            for t in range(n_tenants)
        )
        return cls(tenants=specs, classes=class_map)

    def shares(self) -> dict[int, float]:
        return {spec.tenant_id: spec.share for spec in self.tenants}

    def synthesize(
        self,
        rps: float,
        duration: float,
        rng: np.random.Generator,
        registry: Optional[AdapterRegistry] = None,
        profile: TraceProfile = SPLITWISE_PROFILE,
        **kwargs,
    ) -> Trace:
        """Generate the merged multi-tenant stream at aggregate rate ``rps``.

        Each tenant's sub-stream is synthesized independently (share x rps,
        the tenant's burst phase) from the single ``rng`` in roster order —
        deterministic for a fixed roster and seed — then merged by arrival
        time with request ids renumbered globally.  Extra ``kwargs`` pass
        through to :func:`synthesize_trace` (burst shape, adapter popularity
        ...); a per-tenant ``burst_phase`` in them is rejected since the
        roster owns the phases.
        """
        if rps <= 0:
            raise ValueError(f"rate must be positive, got {rps}")
        if "burst_phase" in kwargs:
            raise ValueError("burst_phase is set per tenant by the roster")
        total_share = sum(spec.share for spec in self.tenants)
        requests: list[Request] = []
        for spec in self.tenants:
            sub = synthesize_trace(
                profile, rps * spec.share / total_share, duration, rng,
                registry, burst_phase=spec.phase, **kwargs)
            for request in sub.requests:
                request.tenant_id = spec.tenant_id
                request.slo_class = spec.slo_class
            requests.extend(sub.requests)
        requests.sort(key=lambda r: r.arrival_time)
        for i, request in enumerate(requests):
            request.request_id = i
        return Trace(requests=requests, profile=profile, rps=rps,
                     duration=duration)


def inject_hot_tenant_storm(
    trace: Trace,
    population: TenantPopulation,
    tenant_id: int,
    storm_rps: float,
    start: float,
    storm_duration: float,
    rng: np.random.Generator,
    registry: Optional[AdapterRegistry] = None,
    **kwargs,
) -> Trace:
    """Overlay a hot-tenant storm onto an existing labelled trace.

    One tenant suddenly floods the fleet: an extra Poisson stream at
    ``storm_rps`` over ``[start, start + storm_duration)`` is stamped with
    the storm tenant's id and class and merged in (ids renumbered).  This is
    the fairness headline scenario — without quotas the storm's queue build-up
    is paid by every *other* tenant's deadline.
    """
    spec = next(
        (s for s in population.tenants if s.tenant_id == tenant_id), None)
    if spec is None:
        raise ValueError(f"unknown storm tenant {tenant_id}")
    if start < 0 or storm_duration <= 0:
        raise ValueError("storm window must be non-negative and non-empty")
    profile = trace.profile
    # Storm arrivals are a plain Poisson overlay: the *storm* is the burst.
    flat = TraceProfile(
        name=profile.name, bursty=False,
        mean_input_tokens=profile.mean_input_tokens,
        mean_output_tokens=profile.mean_output_tokens,
        input_sigma=profile.input_sigma, output_sigma=profile.output_sigma,
        max_input_tokens=profile.max_input_tokens,
        max_output_tokens=profile.max_output_tokens)
    storm = synthesize_trace(
        flat, storm_rps, storm_duration, rng, registry, **kwargs)
    for request in storm.requests:
        request.arrival_time += start
        request.tenant_id = spec.tenant_id
        request.slo_class = spec.slo_class
    merged = list(trace.requests) + storm.requests
    merged.sort(key=lambda r: r.arrival_time)
    for i, request in enumerate(merged):
        request.request_id = i
    return Trace(requests=merged, profile=profile, rps=trace.rps,
                 duration=max(trace.duration, start + storm_duration))
