"""Load forecasting: per-adapter use prediction and cluster arrival rates.

§4.2.3 of the paper explores prefetching adapters for requests that are *not
yet queued*, driven by the histogram technique of Shahrad et al. [48]: keep a
per-adapter histogram of inter-arrival times and predict the next use from
the histogram's mass below a horizon.  The Chameleon prefetcher asks, every
refresh interval, which adapters are likely to be used within the horizon and
warms them into the cache if there is room.
:class:`HistogramLoadPredictor` implements that per-adapter view.

:class:`ArrivalRateForecaster` lifts the same idea from adapters to the
*cluster*: an online forecast of the aggregate arrival rate, which is what a
predictive autoscaler needs — replicas pay a provisioning cold start, so the
controller must know the demand ``provision_delay`` seconds from now, not the
demand it is already drowning in.  The forecaster keeps a windowed history of
rate buckets (one per control-loop tick), extrapolates a linear trend over
the window, and — when the workload has a known period (diurnal cycles,
batch-job cron bursts) — overlays a seasonal histogram of phase-binned rates
so a burst observed in previous cycles is predicted *before* it re-arrives.
Every estimate carries a confidence band that widens under sparse data.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: :class:`ArrivalRateForecaster` fits a trend only from this many buckets.
MIN_TREND_SAMPLES = 4
#: Trend band half-width in residual standard deviations.
BAND_Z = 1.0
#: Phase bins of the forecaster's seasonal histogram over one cycle.
SEASONAL_BINS = 24


class HistogramLoadPredictor:
    """Per-adapter empirical inter-arrival distributions.

    Each adapter keeps its most recent raw inter-arrival samples; a
    prediction ranks them directly (see :meth:`probability_within`), so
    there is no bin width and no overflow bin.

    Args:
        history: How many recent inter-arrivals to keep per adapter.
    """

    def __init__(self, history: int = 64) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.history = history
        self._last_seen: dict[int, float] = {}
        self._intervals: dict[int, deque[float]] = defaultdict(
            lambda: deque(maxlen=history))

    def record_use(self, adapter_id: int, now: float) -> None:
        """Record that a request for ``adapter_id`` arrived at time ``now``."""
        last = self._last_seen.get(adapter_id)
        if last is not None and now >= last:
            self._intervals[adapter_id].append(now - last)
        self._last_seen[adapter_id] = now

    def probability_within(self, adapter_id: int, now: float, horizon: float) -> float:
        """P(next use of ``adapter_id`` occurs within ``horizon`` seconds).

        Uses the empirical inter-arrival distribution conditioned on the time
        already elapsed since the adapter's last use (the hazard the histogram
        method approximates).  Unknown adapters get probability 0, as does a
        degenerate (negative) horizon.  Single-sample histories and
        zero-length intervals (two uses at one timestamp) are well-defined:
        the result is always a finite probability in [0, 1], never NaN.
        """
        last = self._last_seen.get(adapter_id)
        intervals = self._intervals.get(adapter_id)
        if last is None or not intervals or horizon < 0:
            return 0.0
        elapsed = max(0.0, now - last)
        samples = np.asarray(intervals, dtype=float)
        at_risk = samples[samples >= elapsed]
        if at_risk.size == 0:
            return 0.0
        hits = int(np.count_nonzero(at_risk <= elapsed + horizon))
        return hits / int(at_risk.size)

    def rank_candidates(
        self,
        now: float,
        horizon: float,
        exclude: Optional[set[int]] = None,
        min_probability: float = 0.3,
    ) -> list[tuple[int, float]]:
        """Adapters likely to be used within ``horizon``, most likely first."""
        exclude = exclude or set()
        scored: list[tuple[int, float]] = []
        for adapter_id in self._last_seen:
            if adapter_id in exclude:
                continue
            p = self.probability_within(adapter_id, now, horizon)
            if p >= min_probability:
                scored.append((adapter_id, p))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored


@dataclass(frozen=True)
class RateForecast:
    """One arrival-rate forecast: a point estimate with a confidence band.

    Attributes:
        rate: Predicted mean arrival rate (requests/second) at the target
            time, clamped to >= 0.
        lower / upper: Confidence band around ``rate`` (both >= 0).  The
            band widens under sparse data — a forecast from one bucket is a
            guess, a forecast from thirty is a trend.
        horizon: Seconds ahead of "now" the forecast targets.
        basis: How the estimate was formed — ``"cold"`` (no history at all),
            ``"current"`` (too few buckets for a trend: the windowed observed
            rate), ``"trend"`` (least-squares extrapolation over the window),
            with ``"+seasonal"`` appended when the phase histogram's estimate
            exceeded the base and was used instead.
    """

    rate: float
    lower: float
    upper: float
    horizon: float
    basis: str


class ArrivalRateForecaster:
    """Online cluster arrival-rate forecast from windowed rate buckets.

    The caller (the autoscaler's control loop) feeds one bucket per tick via
    :meth:`observe`; the forecaster keeps the buckets covering the trailing
    ``window`` seconds and answers :meth:`forecast` queries for any horizon:

    * With no history the forecast is cold (rate 0 — the current observed
      rate of an empty window — and an empty band; the caller's reactive
      safety net owns cold starts).
    * With fewer than ``MIN_TREND_SAMPLES`` buckets the point estimate is
      the windowed observed rate and the band half-width is
      ``rate / sqrt(n)`` — maximally wide at one sample, shrinking as the
      window fills.
    * With enough buckets, an ordinary-least-squares line through the
      (bucket midpoint, bucket rate) points is extrapolated to the target
      time; the band half-width is ``BAND_Z * s * sqrt(1 + 1/n)`` with
      ``s`` the residual standard deviation, so a noisy window yields a
      wide band and a clean ramp a tight one.

    ``cycle`` (optional) enables the seasonal overlay: every bucket also
    lands in a phase histogram of ``SEASONAL_BINS`` bins over the cycle
    (Shahrad-style, the same technique :class:`HistogramLoadPredictor`
    applies per adapter).  When the phase bin of the *target* time has
    history and its mean rate exceeds the base estimate, the seasonal rate
    wins — this is what lets the forecaster see a periodic burst coming
    before any trend has formed in the current cycle.  Its band widens
    with the *bin's* sparsity (half-width ``rate / sqrt(observations)``),
    so a phase estimate built from a single anomalous bucket carries no
    confidence until later cycles confirm it.

    Everything is deterministic: no RNG, no wall clock — two runs feeding
    identical buckets produce identical forecasts.
    """

    def __init__(self, window: float = 30.0, *,
                 cycle: Optional[float] = None) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if cycle is not None and cycle <= 0:
            raise ValueError(f"cycle must be > 0, got {cycle}")
        self.window = window
        self.cycle = cycle
        self._buckets: deque[tuple[float, float, int]] = deque()
        # Phase histograms; only touched when ``cycle`` is set.
        self._seasonal_time = [0.0] * SEASONAL_BINS
        self._seasonal_count = [0.0] * SEASONAL_BINS
        self._seasonal_obs = [0] * SEASONAL_BINS

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe(self, start: float, end: float, count: int) -> None:
        """Record one rate bucket: ``count`` arrivals over ``[start, end)``.

        A zero-width bucket carries no rate information and is ignored (it
        must not divide by zero); a negative span or count is an error.
        """
        if end < start:
            raise ValueError(f"bucket ends before it starts: [{start}, {end})")
        if count < 0:
            raise ValueError(f"bucket count must be >= 0, got {count}")
        if end == start:
            return  # zero-width window: no rate, no crash
        self._buckets.append((start, end, count))
        while self._buckets and self._buckets[0][1] <= end - self.window:
            self._buckets.popleft()
        if self.cycle is not None:
            bin_index = self._phase_bin((start + end) / 2.0)
            self._seasonal_time[bin_index] += end - start
            self._seasonal_count[bin_index] += count
            self._seasonal_obs[bin_index] += 1

    def observed_rate(self) -> float:
        """Windowed mean arrival rate: total arrivals over total span
        of the retained buckets (0.0 with no history)."""
        span = sum(end - start for start, end, _ in self._buckets)
        if span <= 0:
            return 0.0
        return sum(count for _, _, count in self._buckets) / span

    def _phase_bin(self, at_time: float) -> int:
        assert self.cycle is not None
        bin_index = int((at_time % self.cycle) / self.cycle * SEASONAL_BINS)
        return min(bin_index, SEASONAL_BINS - 1)

    def seasonal_rate(self, at_time: float) -> Optional[float]:
        """Mean historical rate of the phase bin containing ``at_time``,
        or ``None`` without a cycle or without history in that bin."""
        if self.cycle is None:
            return None
        bin_index = self._phase_bin(at_time)
        if self._seasonal_time[bin_index] <= 0:
            return None
        return self._seasonal_count[bin_index] / self._seasonal_time[bin_index]

    # ------------------------------------------------------------------ #
    # Forecast
    # ------------------------------------------------------------------ #
    def forecast(self, now: float, horizon: float) -> RateForecast:
        """Predict the arrival rate ``horizon`` seconds after ``now``."""
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        n = len(self._buckets)
        if n == 0:
            return RateForecast(rate=0.0, lower=0.0, upper=0.0,
                                horizon=horizon, basis="cold")
        target_time = now + horizon
        estimate, halfwidth, basis = self._base_estimate(target_time, n)
        seasonal = self.seasonal_rate(target_time)
        if seasonal is not None and seasonal > estimate:
            estimate = seasonal
            basis += "+seasonal"
            # The band must reflect the *seasonal* bin's sparsity, not the
            # trailing window's: a phase estimate built from one bucket is
            # one anomaly wide (half-width = the full rate, floor at zero),
            # tightening as the bin accumulates observations across cycles.
            obs = self._seasonal_obs[self._phase_bin(target_time)]
            halfwidth = max(halfwidth, estimate / math.sqrt(obs))
        return RateForecast(
            rate=estimate,
            lower=max(0.0, estimate - halfwidth),
            upper=estimate + halfwidth,
            horizon=horizon,
            basis=basis,
        )

    def _base_estimate(self, target_time: float,
                       n: int) -> tuple[float, float, str]:
        """(point estimate, band half-width, basis) before the seasonal
        overlay: windowed rate when sparse, OLS extrapolation otherwise."""
        current = self.observed_rate()
        if n < MIN_TREND_SAMPLES:
            return current, current / math.sqrt(n), "current"
        mids = [(start + end) / 2.0 for start, end, _ in self._buckets]
        rates = [count / (end - start) for start, end, count in self._buckets]
        mean_t = sum(mids) / n
        mean_r = sum(rates) / n
        sxx = sum((t - mean_t) ** 2 for t in mids)
        if sxx <= 0:  # all buckets share one midpoint: no trend to fit
            return current, current / math.sqrt(n), "current"
        slope = sum((t - mean_t) * (r - mean_r)
                    for t, r in zip(mids, rates)) / sxx
        intercept = mean_r - slope * mean_t
        estimate = max(0.0, intercept + slope * target_time)
        residual_var = sum(
            (r - (intercept + slope * t)) ** 2 for t, r in zip(mids, rates)
        ) / n
        halfwidth = BAND_Z * math.sqrt(residual_var) \
            * math.sqrt(1.0 + 1.0 / n)
        return estimate, halfwidth, "trend"
