"""Exporters: Perfetto trace JSON, span waterfalls, metrics CSV/JSON.

This is the **only** runtime module allowed to open files for writing
(simlint rule D009): instrumentation stays side-effect free on the sim
path, and everything durable funnels through here after (or outside)
the run.

The Chrome/Perfetto trace-event format reference:
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
— we emit complete events (``ph: "X"``), instant events (``ph: "i"``)
and ``thread_name`` metadata (``ph: "M"``), timestamps in integer
microseconds of simulated time.  The resulting ``.json`` opens directly
in https://ui.perfetto.dev (or ``chrome://tracing``).

Byte-identity: timestamps quantize through one deterministic
float-seconds -> int-microseconds conversion, events serialize in
recording order, and JSON keys are sorted — two same-seed runs export
byte-identical files.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

from repro.obs.tracer import PID

#: Keys every exported trace event carries (schema contract, also
#: asserted by the CI trace-smoke step).
TRACE_EVENT_REQUIRED_KEYS = ("ph", "pid", "tid", "name", "ts")


def _us(seconds: float) -> int:
    """Simulated seconds -> integer microseconds (the trace time unit)."""
    return int(round(seconds * 1_000_000))


# --------------------------------------------------------------------- #
# Perfetto / Chrome trace-event JSON
# --------------------------------------------------------------------- #
def perfetto_events(tracer: "Tracer") -> list[dict]:
    """The trace-event list: track metadata, then spans, then instants."""
    events: list[dict] = []
    for tid in sorted(tracer.tracks):
        events.append({
            "ph": "M", "pid": PID, "tid": tid, "ts": 0,
            "name": "thread_name",
            "args": {"name": tracer.tracks[tid]},
        })
    for span in tracer.spans:
        start = _us(span.start)
        args = dict(span.args)
        if span.request_id is not None:
            args["request_id"] = span.request_id
        events.append({
            "ph": "X", "pid": PID, "tid": span.tid, "ts": start,
            "dur": max(0, _us(span.end) - start),
            "name": span.name, "cat": "request", "args": args,
        })
    for instant in tracer.instants:
        events.append({
            "ph": "i", "pid": PID, "tid": instant.tid,
            "ts": _us(instant.time), "s": "t",
            "name": instant.name, "cat": "annotation",
            "args": dict(instant.args),
        })
    return events


def perfetto_payload(tracer: "Tracer") -> dict:
    """The full JSON-object trace-file payload."""
    return {"traceEvents": perfetto_events(tracer),
            "displayTimeUnit": "ms"}


def write_perfetto(tracer: "Tracer", path: str) -> None:
    """Write the trace to ``path`` as Perfetto-openable JSON."""
    with open(path, "w") as fh:
        json.dump(perfetto_payload(tracer), fh, indent=1, sort_keys=True)


def validate_trace_events(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is schema-valid.

    Checks the contract the CI smoke step relies on: a ``traceEvents``
    list whose entries all carry :data:`TRACE_EVENT_REQUIRED_KEYS`,
    integer timestamps, and ``dur`` on every complete event.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    for i, event in enumerate(events):
        missing = [k for k in TRACE_EVENT_REQUIRED_KEYS if k not in event]
        if missing:
            raise ValueError(f"traceEvents[{i}] missing keys {missing}")
        if not isinstance(event["ts"], int):
            raise ValueError(f"traceEvents[{i}] ts must be int microseconds")
        if event["ph"] == "X" and not isinstance(event.get("dur"), int):
            raise ValueError(f"traceEvents[{i}] complete event needs int dur")


# --------------------------------------------------------------------- #
# Slow-trace waterfalls
# --------------------------------------------------------------------- #
def span_waterfall(tracer: "Tracer", request_id: int,
                   width: int = 40) -> str:
    """One request's spans as an aligned text waterfall.

    Each line shows the span name, its absolute interval, its duration,
    and a bar positioned within the request's overall extent — the
    at-a-glance answer to "where did the time go".
    """
    spans = tracer.spans_for(request_id)
    if not spans:
        return f"request {request_id}: no spans recorded"
    lo = min(s.start for s in spans)
    hi = max(s.end for s in spans)
    extent = max(hi - lo, 1e-12)
    meta = tracer.requests.get(request_id, {})
    title = f"request {request_id}"
    details = [f"{k}={meta[k]}" for k in ("tenant", "slo_class", "adapter",
                                          "retries") if k in meta]
    if meta.get("ttft") is not None:
        details.append(f"ttft={meta['ttft']:.3f}s")
    if meta.get("e2e") is not None:
        details.append(f"e2e={meta['e2e']:.3f}s")
    if details:
        title += "  (" + ", ".join(details) + ")"
    lines = [title]
    for span in spans:
        left = int((span.start - lo) / extent * width)
        filled = max(1, int(round(span.duration / extent * width)))
        filled = min(filled, width - left)
        bar = " " * left + "#" * filled
        track = tracer.tracks.get(span.tid, f"tid{span.tid}")
        lines.append(
            f"  {span.name:<13} {span.start:10.4f} -> {span.end:10.4f} "
            f"({span.duration:8.4f}s) |{bar:<{width}}| {track}")
    return "\n".join(lines)


def slow_trace_report(tracer: "Tracer", k: int, width: int = 40) -> str:
    """Waterfalls for the ``k`` worst-TTFT requests, worst first."""
    rows = tracer.slowest(k)
    if not rows:
        return "no finished requests recorded"
    blocks = [f"--- slowest {len(rows)} requests by TTFT ---"]
    blocks += [span_waterfall(tracer, row["request_id"], width=width)
               for row in rows]
    return "\n\n".join(blocks)


# --------------------------------------------------------------------- #
# Metrics dumps
# --------------------------------------------------------------------- #
def write_metrics_csv(registry: "MetricsRegistry", path: str) -> None:
    """Dump the sampled timeseries as CSV (columns in registry order)."""
    columns = registry.column_names()
    lines = [",".join(columns)]
    for row in registry.samples:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest round-trippable form, deterministic
    return str(value)


def write_metrics_json(registry: "MetricsRegistry", path: str) -> None:
    """Dump samples plus histogram summaries as sorted-key JSON."""
    payload = {
        "columns": registry.column_names(),
        "samples": registry.samples,
        "histograms": registry.histogram_summaries(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def write_metrics(registry: "MetricsRegistry", path: str) -> None:
    """Dump metrics to ``path``, format chosen by extension (.csv/.json)."""
    name = str(path)
    if name.endswith(".csv"):
        write_metrics_csv(registry, path)
    elif name.endswith(".json"):
        write_metrics_json(registry, path)
    else:
        raise ValueError(
            f"metrics path must end in .csv or .json, got {name!r}")


def iter_trace_files(paths: Iterable[str]) -> Iterable[dict]:
    """Load and validate each trace file (helper for tooling/tests)."""
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        validate_trace_events(payload)
        yield payload


def load_trace(path: str) -> dict:
    """Load one trace file, validating the schema."""
    payload: Optional[dict] = None
    for payload in iter_trace_files([path]):
        break
    assert payload is not None
    return payload
