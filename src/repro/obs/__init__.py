"""Observability: request-lifecycle tracing, metrics, and trace exporters.

The package has three halves, all deterministic on the simulated clock:

* :mod:`repro.obs.tracer` — a :class:`Tracer` collecting per-request
  **spans** (queue, dispatch, adapter-load, prefill, decode, execute) and
  **instant annotations** (SLO shed/deprioritize, region spill/steal,
  fault injection, migration, replica lifecycle, autoscaler actions).
  Instrumented subsystems hold a ``_tracer`` attribute that defaults to
  ``None``; every hook site is guarded by ``if self._tracer is not None``
  so the disabled path costs one attribute check and never a call.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of
  callable-backed gauges and histograms, its gauges sampled into a
  deterministic timeseries by a periodic simulator event
  (:meth:`repro.sim.simulator.Simulator.schedule_periodic`).
* :mod:`repro.obs.export` — the only module in the runtime tree allowed
  to open files for writing (simlint rule D009): Chrome/Perfetto
  trace-event JSON (openable at ui.perfetto.dev), per-request span
  waterfalls for slow-request forensics, and metrics CSV/JSON dumps.

Tracing is attached *after* construction (``system.attach_tracer(...)``,
``region.attach_tracer(...)``) and records no simulator events of its
own, so a tracer-attached run produces byte-identical ``summary()``
output to a detached one.
"""

from repro.obs.metrics import Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import (
    Instant,
    Span,
    Tracer,
    dispatcher_tid,
    replica_tid,
)

__all__ = [
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "dispatcher_tid",
    "replica_tid",
]
