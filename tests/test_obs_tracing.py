"""Observability: tracer determinism, metrics registry, exporters, CLI.

The two contracts this file pins:

* **Determinism** — a same-seed run exports a byte-identical trace JSON
  and metrics CSV every time (records arrive in simulator event order and
  exporters serialize them canonically).
* **Non-interference** — attaching a tracer or a metrics registry never
  changes what the simulation computes: summaries are identical with and
  without them, and the disabled path is a bare attribute check.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.experiments.report import metrics_markdown
from repro.faults import FaultSchedule
from repro.obs import MetricsRegistry, Tracer, dispatcher_tid, replica_tid
from repro.obs.export import (
    load_trace, slow_trace_report, span_waterfall, validate_trace_events,
    write_metrics, write_perfetto,
)
from repro.serving.admission import SloPolicy
from repro.serving.autoscaler import AutoscaleConfig
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def build_system(big_registry, sim, seed=7, n_replicas=2, **kwargs):
    return MultiReplicaSystem.build(
        "chameleon", n_replicas=n_replicas, sim=sim, seed=seed,
        registry=big_registry, **kwargs)


# --------------------------------------------------------------------- #
# Simulator.schedule_periodic
# --------------------------------------------------------------------- #
def test_schedule_periodic_fires_on_the_grid(sim):
    times = []
    sim.schedule_periodic(2.0, lambda: times.append(sim.now), until=10.0)
    sim.run()
    assert times == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_schedule_periodic_stops_at_until(sim):
    times = []
    sim.schedule_periodic(3.0, lambda: times.append(sim.now), until=7.0)
    sim.run()
    assert times == [3.0, 6.0]  # 9.0 would pass the bound
    assert sim.pending_events == 0  # the chain ended; run() could drain


def test_schedule_periodic_past_horizon_is_none(sim):
    assert sim.schedule_periodic(5.0, lambda: None, until=3.0) is None


def test_schedule_periodic_rejects_bad_interval(sim):
    with pytest.raises(ValueError):
        sim.schedule_periodic(0.0, lambda: None, until=10.0)


def test_schedule_periodic_cancel_stops_the_chain(sim):
    times = []
    event = sim.schedule_periodic(1.0, lambda: times.append(sim.now),
                                  until=10.0)
    sim.cancel(event)
    sim.run()
    assert times == []


# --------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------- #
def test_track_id_scheme():
    assert dispatcher_tid() == 1
    assert dispatcher_tid(3) == 4
    assert replica_tid(0, 0) == 1000
    assert replica_tid(1, 7) == 2007


def test_tracer_is_off_by_default(big_registry, sim):
    system = build_system(big_registry, sim)
    assert system.cluster._tracer is None
    assert all(e._tracer is None for e in system.engines)


def test_record_request_builds_the_waterfall():
    class Stamps:
        request_id = 5
        arrival_time = 1.0
        enqueue_time = 2.0
        admit_time = 3.0
        adapter_ready_time = 3.5
        prefill_start_time = 4.0
        first_token_time = 4.5
        finish_time = 6.0
        retry_count = 1
        adapter_id = 9
        tenant_id = None
        slo_class = "gold"

    tracer = Tracer()
    tracer.record_request(Stamps(), tid=1001)
    spans = {s.name: s for s in tracer.spans}
    assert set(spans) == {"queue", "adapter_load", "execute", "prefill",
                          "decode"}
    assert spans["queue"].start == 2.0 and spans["queue"].end == 3.0
    assert spans["adapter_load"].end == 3.5
    assert spans["execute"].duration == 2.0
    assert spans["prefill"].end == spans["decode"].start == 4.5
    assert spans["queue"].args == {"adapter": 9, "slo_class": "gold",
                                   "retries": 1}
    row = tracer.requests[5]
    assert row["ttft"] == 3.5 and row["e2e"] == 5.0 and row["tid"] == 1001


def test_slowest_sorts_by_ttft_with_id_tiebreak():
    class Stamps:
        arrival_time = 0.0
        enqueue_time = admit_time = adapter_ready_time = None
        prefill_start_time = None
        finish_time = None
        retry_count = 0
        adapter_id = tenant_id = slo_class = None

        def __init__(self, rid, first):
            self.request_id = rid
            self.first_token_time = first

    tracer = Tracer()
    for rid, first in [(1, 2.0), (2, 5.0), (3, 5.0), (4, None)]:
        tracer.record_request(Stamps(rid, first), tid=1)
    rows = tracer.slowest(3)
    assert [r["request_id"] for r in rows] == [2, 3, 1]  # unfinished skipped


def test_register_track_first_wins():
    tracer = Tracer()
    tracer.register_track(1, "s0/dispatcher")
    tracer.register_track(1, "imposter")
    assert tracer.tracks[1] == "s0/dispatcher"


# --------------------------------------------------------------------- #
# Determinism and non-interference
# --------------------------------------------------------------------- #
def run_traced(big_registry, trace, out, metrics_path):
    sim = Simulator()
    system = build_system(big_registry, sim)
    tracer = Tracer()
    metrics = MetricsRegistry()
    system.attach_tracer(tracer)
    system.attach_metrics(metrics)
    metrics.install(sim, 5.0, until=30.0)
    system.run_trace(trace.fresh())
    write_perfetto(tracer, out)
    write_metrics(metrics, metrics_path)
    return system.summary()


def test_same_seed_exports_are_byte_identical(big_registry, tiny_trace,
                                              tmp_path):
    a_trace, a_csv = tmp_path / "a.json", tmp_path / "a.csv"
    b_trace, b_csv = tmp_path / "b.json", tmp_path / "b.csv"
    run_traced(big_registry, tiny_trace, a_trace, a_csv)
    run_traced(big_registry, tiny_trace, b_trace, b_csv)
    assert a_trace.read_bytes() == b_trace.read_bytes()
    assert a_csv.read_bytes() == b_csv.read_bytes()


def test_attaching_telemetry_does_not_change_the_run(big_registry,
                                                     tiny_trace, tmp_path):
    plain_sim = Simulator()
    plain = build_system(big_registry, plain_sim)
    plain.run_trace(tiny_trace.fresh())
    traced_summary = run_traced(big_registry, tiny_trace,
                                tmp_path / "t.json", tmp_path / "t.csv")
    assert plain.summary() == traced_summary


# --------------------------------------------------------------------- #
# Region run: full span vocabulary + schema
# --------------------------------------------------------------------- #
@pytest.fixture
def region_trace_payload(big_registry, tmp_path):
    # Heavy enough that the 2x1 fleet queues at the cluster level, so
    # the dispatch span (recorded by the queue-release path) appears.
    trace = synthesize_trace(
        SPLITWISE_PROFILE, rps=20.0, duration=40.0,
        rng=RngStreams(7).get("trace"), registry=big_registry)
    region = ServingRegion.build(
        "chameleon", n_replicas=1, seed=7, registry=big_registry,
        region=RegionConfig(n_shards=2))
    tracer = Tracer()
    region.attach_tracer(tracer)
    region.run_trace(trace.fresh())
    path = tmp_path / "region.json"
    write_perfetto(tracer, path)
    return tracer, load_trace(path)


def test_region_trace_covers_the_span_vocabulary(region_trace_payload):
    tracer, payload = region_trace_payload
    names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert {"queue", "dispatch", "adapter_load", "execute"} <= names
    assert "spill" in tracer.instant_names()


def test_region_trace_validates_and_names_tracks(region_trace_payload):
    _, payload = region_trace_payload
    validate_trace_events(payload)
    threads = {e["args"]["name"] for e in payload["traceEvents"]
               if e["ph"] == "M"}
    assert {"s0/dispatcher", "s1/dispatcher", "s0/replica0",
            "s1/replica0"} <= threads


def test_trace_timestamps_are_integer_microseconds(region_trace_payload):
    _, payload = region_trace_payload
    xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert xs and all(
        isinstance(e["ts"], int) and isinstance(e["dur"], int)
        and e["dur"] >= 0 for e in xs)


def test_validate_trace_events_rejects_bad_payloads():
    with pytest.raises(ValueError):
        validate_trace_events({"traceEvents": []})
    with pytest.raises(ValueError):
        validate_trace_events({"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "x"}]})  # no ts
    with pytest.raises(ValueError):
        validate_trace_events({"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 1.5,
             "dur": 0}]})  # float ts


# --------------------------------------------------------------------- #
# Annotation instants from the event-shaping subsystems
# --------------------------------------------------------------------- #
def test_slo_shed_instants_carry_the_policy_args(big_registry, loaded_trace):
    sim = Simulator()
    system = build_system(
        big_registry, sim, n_replicas=1,
        slo_policy=SloPolicy(ttft_deadline=0.2, mode="shed"))
    tracer = Tracer()
    system.attach_tracer(tracer)
    system.run_trace(loaded_trace.fresh())
    sheds = [i for i in tracer.instants if i.name == "slo_shed"]
    assert sheds and sheds[0].args["deadline"] == 0.2
    assert sheds[0].args["mode"] == "shed"
    assert len(sheds) == system.cluster.stats.shed


def test_fault_and_migrate_instants(big_registry, tiny_trace):
    sim = Simulator()
    system = build_system(
        big_registry, sim, n_replicas=2,
        fault_schedule=FaultSchedule.parse("5:crash:1"))
    tracer = Tracer()
    system.attach_tracer(tracer)
    system.run_trace(tiny_trace.fresh())
    names = tracer.instant_names()
    assert "fault" in names and "lifecycle" in names
    fault = next(i for i in tracer.instants if i.name == "fault")
    assert fault.args["kind"] == "crash" and fault.args["replica"] == 1
    assert fault.tid == dispatcher_tid(0)


def test_autoscale_instant_mirrors_the_scale_event(big_registry):
    system = MultiReplicaSystem.build(
        "slora", registry=big_registry, predictor_accuracy=None, seed=0,
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=2))
    tracer = Tracer()
    system.attach_tracer(tracer)
    system.autoscaler._record("scale_out", [1], 0.1, 0.5, 0.9)
    instant = next(i for i in tracer.instants if i.name == "autoscale")
    assert instant.args["action"] == "scale_out"
    assert instant.args["replicas"] == [1]


# --------------------------------------------------------------------- #
# Slow-trace report
# --------------------------------------------------------------------- #
def test_slow_trace_report_renders_waterfalls(big_registry, tiny_trace):
    sim = Simulator()
    system = build_system(big_registry, sim)
    tracer = Tracer()
    system.attach_tracer(tracer)
    system.run_trace(tiny_trace.fresh())
    report = slow_trace_report(tracer, 2)
    assert "slowest 2 requests" in report
    worst = tracer.slowest(1)[0]
    assert f"request {worst['request_id']}" in report
    assert "#" in report  # the bars
    single = span_waterfall(tracer, worst["request_id"])
    assert "execute" in single


# --------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------- #
def test_gauge_histogram_semantics():
    registry = MetricsRegistry()
    registry.gauge("depth", lambda: 4.0)
    with pytest.raises(ValueError):
        registry.gauge("depth", lambda: 0.0)  # duplicate gauge
    with pytest.raises(ValueError):
        registry.histogram("depth")  # cross-kind name conflict
    histogram = registry.histogram("ttft")
    assert registry.histogram("ttft") is histogram  # idempotent
    for value in (0.1, 0.5, 0.3):
        histogram.observe(value)
    assert histogram.percentile(50) == 0.3
    summary = histogram.summary()
    assert summary["count"] == 3 and summary["max"] == 0.5


def test_sample_rows_have_sorted_stable_columns():
    registry = MetricsRegistry()
    registry.gauge("b_gauge", lambda: 0.5)
    registry.gauge("a_gauge", lambda: 1.5)
    registry.histogram("c_hist").observe(1.0)  # summarized, not sampled
    row = registry.sample(now=2.0)
    # Gauges sorted by name — the same order column_names() promises, so
    # CSV headers always line up.
    assert row == {"time": 2.0, "a_gauge": 1.5, "b_gauge": 0.5}
    assert list(row) == ["time", "a_gauge", "b_gauge"]
    assert registry.column_names() == ["time", "a_gauge", "b_gauge"]
    assert registry.samples == [row]


def test_install_samples_on_the_sim_clock(sim):
    registry = MetricsRegistry()
    fired = []
    registry.gauge("g", lambda: float(len(fired)))
    registry.install(sim, interval=2.0, until=6.0)
    sim.run()
    assert [row["time"] for row in registry.samples] == [2.0, 4.0, 6.0]


def test_metrics_export_csv_json_and_markdown(tmp_path):
    registry = MetricsRegistry()
    registry.gauge("c", lambda: 2.0)
    registry.gauge("g", lambda: 0.5)
    registry.histogram("h").observe(1.0)
    registry.sample(now=1.0)
    csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
    write_metrics(registry, csv_path)
    write_metrics(registry, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time,c,g"
    assert lines[1] == "1.0,2.0,0.5"
    payload = json.loads(json_path.read_text())
    assert payload["columns"] == ["time", "c", "g"]
    assert payload["histograms"]["h"]["count"] == 1
    with pytest.raises(ValueError):
        write_metrics(registry, tmp_path / "m.txt")
    rendered = metrics_markdown(payload)
    assert "| time | c | g |" in rendered
    assert "Histograms" in rendered


def test_gauge_and_histogram_reject_reuse_across_kinds():
    registry = MetricsRegistry()
    registry.histogram("x")
    with pytest.raises(ValueError):
        registry.gauge("x", lambda: 0.0)


# --------------------------------------------------------------------- #
# CLI smoke
# --------------------------------------------------------------------- #
def test_cli_trace_subcommand_end_to_end(tmp_path, capsys):
    out = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    code = repro_main([
        "trace", "--replicas", "1", "--rps", "6", "--duration", "20",
        "--seed", "3", "--out", str(out), "--metrics", str(metrics),
        "--slowest", "1"])
    assert code == 0
    payload = load_trace(out)
    validate_trace_events(payload)
    assert json.loads(metrics.read_text())["samples"]
    printed = capsys.readouterr().out
    assert "ui.perfetto.dev" in printed
    assert "slowest 1 requests" in printed
