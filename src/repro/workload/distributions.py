"""Sampling primitives: Zipf popularity and heavy-tailed lengths.

The paper assigns each request an adapter by sampling a *rank* (uniform or
power-law over the five ranks) and then an adapter within the rank by a
power law; request lengths in production traces are heavy-tailed (§3.3's
"most requests are short, a few are very long"), which we model with
truncated log-normals.
"""

from __future__ import annotations

import math

import numpy as np


def zipf_weights(n: int, alpha: float = 1.0) -> np.ndarray:
    """Normalized Zipf/power-law weights over ``n`` items: w_i ~ (i+1)^-alpha."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    ranksq = np.arange(1, n + 1, dtype=float) ** (-alpha)
    return ranksq / ranksq.sum()


def sample_lognormal_lengths(
    rng: np.random.Generator,
    mean: float,
    sigma: float,
    max_len: int,
    size: int,
) -> np.ndarray:
    """Heavy-tailed token lengths with a given *mean* and log-space ``sigma``.

    The underlying normal's mu is solved from the target mean
    (``mean = exp(mu + sigma^2 / 2)``); samples are clipped to
    ``[1, max_len]``.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    mu = np.log(mean) - sigma ** 2 / 2.0
    raw = rng.lognormal(mean=mu, sigma=sigma, size=size)
    return np.clip(np.rint(raw), 1, max_len).astype(int)


def poisson_arrival_times(
    rng: np.random.Generator,
    rate: float,
    duration: float,
) -> np.ndarray:
    """Arrival timestamps of a homogeneous Poisson process on [0, duration)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    # Draw slightly more inter-arrivals than expected, then trim.
    n_guess = int(rate * duration * 1.5) + 20
    times = np.cumsum(rng.exponential(1.0 / rate, size=n_guess))
    while times.size and times[-1] < duration:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=n_guess)) + times[-1]
        times = np.concatenate([times, extra])
    return times[times < duration]


def bursty_arrival_times(
    rng: np.random.Generator,
    rate: float,
    duration: float,
    burst_factor: float = 3.0,
    burst_fraction: float = 0.1,
    cycle: float = 120.0,
    phase: float = 0.0,
) -> np.ndarray:
    """Poisson arrivals modulated by periodic bursts.

    For a fraction ``burst_fraction`` of each ``cycle`` the instantaneous rate
    is multiplied by ``burst_factor``; the base rate is lowered so the mean
    rate stays ``rate``.  Production LLM traffic arrives in bursts (§3.1), and
    bursts are what exercise the cache-resizing and HoL-blocking machinery.

    ``phase`` shifts the burst windows within the cycle (seconds): a stream
    with ``phase=p`` bursts over ``[p, p + burst_fraction * cycle)`` mod the
    cycle.  Tenant populations stagger phases to model per-tenant diurnal
    cycles; ``phase=0.0`` is bit-identical to the historical behavior.
    ``cycle`` must be positive and finite and ``phase`` finite: any other
    value would silently change the mean rate.

    Stream contract: after the candidate draws, ``rng.random(n)`` supplies
    one double per candidate, in arrival order.  These are the doubles, in
    the order, that one ``rng.random()`` per candidate consumed, so arrivals
    and the stream position afterwards are identical to traces made by
    earlier commits.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if burst_factor < 1.0:
        raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
    if not 0.0 <= burst_fraction < 1.0:
        raise ValueError(f"burst_fraction must be in [0, 1), got {burst_fraction}")
    if not (math.isfinite(cycle) and cycle > 0):
        raise ValueError(f"cycle must be positive and finite, got {cycle}")
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")
    mean_multiplier = burst_fraction * burst_factor + (1.0 - burst_fraction)
    base_rate = rate / mean_multiplier
    peak_rate = base_rate * burst_factor
    # Thinning of a Poisson process at the peak rate.
    candidates = poisson_arrival_times(rng, peak_rate, duration)
    in_burst = (candidates - phase) % cycle < burst_fraction * cycle
    accept_p = np.where(in_burst, 1.0, base_rate / peak_rate)
    return candidates[rng.random(candidates.size) < accept_p]
