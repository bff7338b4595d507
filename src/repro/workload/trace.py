"""Trace synthesis: Splitwise/WildChat/LMSYS-like request streams.

The paper drives its evaluation with the Azure/Splitwise conversation trace
(heavy-tailed input/output lengths), memory-scaled to the testbed (§3.2), with
Poisson inter-arrival times to set the load (§5.1), plus the WildChat-1M and
LMSYS-Chat-1M datasets ("generally smaller input and output lengths",
§5.4.4).  We synthesize statistically-matched streams; the profiles below are
the published shape parameters scaled with the same procedure the paper uses
(lengths scaled by a constant so peak memory fits the testbed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.adapters.registry import AdapterRegistry
from repro.workload.distributions import (
    bursty_arrival_times,
    poisson_arrival_times,
    sample_lognormal_lengths,
    zipf_weights,
)
from repro.workload.request import Request


@dataclass(frozen=True)
class TraceProfile:
    """Statistical shape of a request stream.

    Lengths are drawn from truncated log-normals; ``sigma`` controls how heavy
    the tail is (the Splitwise conversation trace is strongly heavy-tailed).
    """

    name: str
    mean_input_tokens: float
    mean_output_tokens: float
    input_sigma: float
    output_sigma: float
    max_input_tokens: int
    max_output_tokens: int
    bursty: bool = True


# Shapes follow the published statistics of each dataset, jointly scaled down
# by the §3.2 constant-factor procedure so the peak footprint fits a 48 GB
# testbed at the paper's load range.
# The conversation traces are decode-heavy: outputs dominate the footprint,
# which is what makes the serving system *memory-bound* at high load (the
# paper: "by 12.5 RPS ... GPU memory is fully used").  The absolute lengths
# are the §3.2 constant-factor scaling of the published statistics down to
# the 48 GB testbed at the paper's load range.
SPLITWISE_PROFILE = TraceProfile(
    name="splitwise",
    mean_input_tokens=200.0, mean_output_tokens=60.0,
    input_sigma=1.1, output_sigma=1.1,
    max_input_tokens=4096, max_output_tokens=2048,
)
WILDCHAT_PROFILE = TraceProfile(
    name="wildchat",
    mean_input_tokens=120.0, mean_output_tokens=40.0,
    input_sigma=0.9, output_sigma=0.9,
    max_input_tokens=2048, max_output_tokens=1024,
)
LMSYS_PROFILE = TraceProfile(
    name="lmsys",
    mean_input_tokens=100.0, mean_output_tokens=36.0,
    input_sigma=1.0, output_sigma=0.9,
    max_input_tokens=2048, max_output_tokens=1024,
)

TRACE_PROFILES: dict[str, TraceProfile] = {
    p.name: p for p in (SPLITWISE_PROFILE, WILDCHAT_PROFILE, LMSYS_PROFILE)
}


@dataclass
class Trace:
    """A synthesized request stream plus its generation parameters."""

    requests: list[Request]
    profile: TraceProfile
    rps: float
    duration: float

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def fresh(self) -> list[Request]:
        """Pristine copies of the requests for one system run.

        Engines mutate request state in place, so replaying one trace against
        several systems (the paper's paired-comparison methodology) must hand
        each run its own copies.
        """
        return [
            Request(
                request_id=r.request_id,
                arrival_time=r.arrival_time,
                input_tokens=r.input_tokens,
                output_tokens=r.output_tokens,
                adapter_id=r.adapter_id,
                tenant_id=r.tenant_id,
                slo_class=r.slo_class,
            )
            for r in self.requests
        ]

    def label_tenants(self, n_tenants: int, rng,
                      skew: float = 1.2) -> "Trace":
        """Assign a Zipf-skewed ``tenant_id`` to every request, in place.

        Tenant ``t`` gets probability proportional to ``1 / (t+1)**skew``
        (``skew=0`` is uniform), drawn i.i.d. per request from ``rng`` —
        use the dedicated ``"tenants"`` stream so the labelling never
        perturbs the arrival process.  ``fresh()`` copies carry the label,
        so one labelled trace replays identically against every system.
        Returns ``self`` for chaining.
        """
        if n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {n_tenants}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        if not self.requests:
            return self
        # Deliberately NOT distributions.zipf_weights: pow(x, -a) and
        # 1/pow(x, a) differ by an ulp, and any weight change can flip
        # rng.choice draws — the historical labelling must stay byte-stable.
        # test_tenant_edge_cases pins the two formulas allclose so the
        # normalization can't silently drift apart.
        weights = np.array(
            [1.0 / (t + 1) ** skew for t in range(n_tenants)])
        draws = rng.choice(n_tenants, size=len(self.requests),
                           p=weights / weights.sum())
        for request, tenant in zip(self.requests, draws):
            request.tenant_id = int(tenant)
        return self

    @property
    def mean_input_tokens(self) -> float:
        return float(np.mean([r.input_tokens for r in self.requests]))

    @property
    def mean_output_tokens(self) -> float:
        return float(np.mean([r.output_tokens for r in self.requests]))


def synthesize_trace(
    profile: TraceProfile,
    rps: float,
    duration: float,
    rng: np.random.Generator,
    registry: Optional[AdapterRegistry] = None,
    rank_popularity: str = "uniform",
    adapter_popularity: str = "powerlaw",
    powerlaw_alpha: float = 1.0,
    burst_factor: float = 3.0,
    burst_fraction: float = 0.1,
    burst_cycle: float = 120.0,
    burst_phase: float = 0.0,
) -> Trace:
    """Generate a request stream.

    Args:
        profile: Length-distribution shape.
        rps: Mean requests per second (Poisson, optionally bursty).
        duration: Trace length in simulated seconds.
        rng: Random stream (use a dedicated named stream for pairing).
        registry: Adapter pool; when ``None`` requests are base-model only.
        rank_popularity: ``"uniform"`` or ``"powerlaw"`` over the distinct ranks.
        adapter_popularity: ``"uniform"`` or ``"powerlaw"`` over adapters within
            a rank (the paper's default is power-law).
        powerlaw_alpha: Zipf exponent for the power-law choices.
        burst_factor / burst_fraction / burst_cycle / burst_phase: Burst
            shape for bursty profiles (see :func:`bursty_arrival_times`); the
            defaults match the historical fixed values, so existing traces
            are unchanged.  Diurnal/flash-crowd scenarios (e.g. the
            autoscaling experiments) crank these up; tenant populations
            stagger ``burst_phase`` per tenant.
    """
    if profile.bursty:
        arrivals = bursty_arrival_times(
            rng, rps, duration, burst_factor=burst_factor,
            burst_fraction=burst_fraction, cycle=burst_cycle,
            phase=burst_phase)
    else:
        arrivals = poisson_arrival_times(rng, rps, duration)
    n = arrivals.size
    inputs = sample_lognormal_lengths(
        rng, profile.mean_input_tokens, profile.input_sigma, profile.max_input_tokens, n
    )
    outputs = sample_lognormal_lengths(
        rng, profile.mean_output_tokens, profile.output_sigma, profile.max_output_tokens, n
    )
    # One request per row: the columns are Request's first four fields.
    requests = list(map(Request, range(n), arrivals.tolist(),
                        inputs.tolist(), outputs.tolist()))
    if registry is not None:
        assign_adapters(
            requests, registry, rng,
            rank_popularity=rank_popularity,
            adapter_popularity=adapter_popularity,
            powerlaw_alpha=powerlaw_alpha,
        )
    return Trace(requests=requests, profile=profile, rps=rps, duration=duration)


def assign_adapters(
    requests: Sequence[Request],
    registry: AdapterRegistry,
    rng: np.random.Generator,
    rank_popularity: str = "uniform",
    adapter_popularity: str = "powerlaw",
    powerlaw_alpha: float = 1.0,
) -> None:
    """Attach an adapter id to every request, per the §5.1 procedure.

    A rank is sampled first (uniform or power-law over the distinct ranks),
    then an adapter within that rank (uniform or power-law over the rank's
    adapters).

    Stream contract: after the one rank draw, ``rng.random(len(requests))``
    supplies one double per request, in request order, and each double is
    mapped to an adapter exactly as ``Generator.choice`` maps it (a
    right-sided search of the normalized cumulative weights).  These are the
    doubles, in the order, that one ``rng.choice(len(ids), p=weights)`` per
    request consumed, so adapter ids and the stream position afterwards are
    identical to traces made by earlier commits.
    """
    ranks = registry.ranks
    if rank_popularity == "uniform":
        rank_w = np.full(len(ranks), 1.0 / len(ranks))
    elif rank_popularity == "powerlaw":
        rank_w = zipf_weights(len(ranks), powerlaw_alpha)
    else:
        raise ValueError(f"unknown rank_popularity {rank_popularity!r}")

    per_rank = []
    for rank in ranks:
        ids = registry.ids_by_rank(rank)
        if adapter_popularity == "uniform":
            weights = np.full(len(ids), 1.0 / len(ids))
        elif adapter_popularity == "powerlaw":
            weights = zipf_weights(len(ids), powerlaw_alpha)
        else:
            raise ValueError(f"unknown adapter_popularity {adapter_popularity!r}")
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        per_rank.append((np.asarray(ids), cdf))

    rank_choices = rng.choice(len(ranks), size=len(requests), p=rank_w)
    uniforms = rng.random(len(requests))
    adapter_ids = np.empty(len(requests), dtype=np.int64)
    for rank_idx, (ids, cdf) in enumerate(per_rank):
        mine = rank_choices == rank_idx
        adapter_ids[mine] = ids[cdf.searchsorted(uniforms[mine], side="right")]
    for request, adapter_id in zip(requests, adapter_ids.tolist()):
        request.adapter_id = adapter_id
