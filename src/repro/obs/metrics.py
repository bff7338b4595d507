"""Gauges, histograms, and deterministic timeseries sampling.

A :class:`MetricsRegistry` is the in-run half of the observability
layer: subsystems register cheap *gauges* (zero-argument callables read
at sample time) and feed *histograms* with per-request observations.  A
periodic simulator event
(:meth:`~repro.sim.simulator.Simulator.schedule_periodic`) snapshots
every gauge into one row of a timeseries.

Determinism contract: sampling reads state, never mutates it, so the
extra sampler events shift later event sequence numbers uniformly
without reordering any existing pair of events — a sampled run produces
the same ``summary()`` as an unsampled one, and two same-seed sampled
runs produce byte-identical rows.  Rows iterate metric names in sorted
order for the same reason.

Nothing in this module opens files; CSV/JSON dumps live in
:mod:`repro.obs.export` (the one module simlint rule D009 allows to
write during a run).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional


class Gauge:
    """A point-in-time reading backed by a zero-argument callable."""

    __slots__ = ("name", "read")

    def __init__(self, name: str, read: Callable[[], float]) -> None:
        self.name = name
        self.read = read


class Histogram:
    """A stream of observations, summarized at export time.

    Observations are kept verbatim (runs are bounded, and exactness
    beats bucketing error for the percentile claims the reports make);
    the summary is computed on demand.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observations (NaN when empty)."""
        if not self.values:
            return float("nan")
        ordered = sorted(self.values)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> dict:
        """count/mean/min/max/p50/p99 of everything observed so far."""
        values = self.values
        if not values:
            return dict(count=0, mean=float("nan"), min=float("nan"),
                        max=float("nan"), p50=float("nan"),
                        p99=float("nan"))
        return dict(
            count=len(values),
            mean=sum(values) / len(values),
            min=min(values),
            max=max(values),
            p50=self.percentile(50),
            p99=self.percentile(99),
        )


class MetricsRegistry:
    """A named collection of gauges and histograms plus its samples.

    A name can hold only one metric kind.  ``histogram("x")`` twice
    returns the same object; a second ``gauge("x")`` is an error.
    """

    def __init__(self) -> None:
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Sampled timeseries: one dict per sample, ``time`` first, then
        #: every gauge in sorted-name order.
        self.samples: list[dict] = []
        self._sim: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _claim(self, name: str, kind: str) -> None:
        for store, label in ((self._gauges, "gauge"),
                             (self._histograms, "histogram")):
            if label != kind and name in store:
                raise ValueError(
                    f"metric {name!r} is already registered as a {label}")

    def gauge(self, name: str, read: Callable[[], float]) -> Gauge:
        self._claim(name, "gauge")
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} is already registered")
        gauge = Gauge(name, read)
        self._gauges[name] = gauge
        return gauge

    def histogram(self, name: str) -> Histogram:
        self._claim(name, "histogram")
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, now: float) -> dict:
        """Snapshot every gauge into one timeseries row."""
        row: dict = {"time": now}
        for name in sorted(self._gauges):
            row[name] = float(self._gauges[name].read())
        self.samples.append(row)
        return row

    def install(self, sim: Any, interval: float, until: float) -> None:
        """Sample every ``interval`` simulated seconds until ``until``.

        Uses :meth:`Simulator.schedule_periodic`; the sampler callback
        only reads, so it cannot perturb the run it is observing.
        """
        self._sim = sim
        sim.schedule_periodic(interval, lambda: self.sample(sim.now), until)

    # ------------------------------------------------------------------ #
    # Export views (serialization itself lives in obs.export)
    # ------------------------------------------------------------------ #
    def column_names(self) -> list[str]:
        """The sampled columns: ``time`` plus sorted gauge names."""
        return ["time"] + sorted(self._gauges)

    def histogram_summaries(self) -> dict[str, dict]:
        """Name -> :meth:`Histogram.summary`, sorted by name."""
        return {name: self._histograms[name].summary()
                for name in sorted(self._histograms)}
