"""Arrivals are fed lazily: one pending arrival, ties ordered as up front.

``Simulator.feed`` keeps one pending arrival in the heap and pushes the next
when it fires.  Arrivals take a block of sequence numbers reserved when the
feed starts, so every tie with another event at an equal timestamp resolves
exactly as it did when ``run_trace`` scheduled the whole trace before the
first event.  That upfront loop is kept here, as ``upfront``, and a
Hypothesis oracle drives it and the feed with the same drawn scenarios:
arrival times with exact ties in unsorted input order, events scheduled
before and after the feed at the same timestamps, callbacks that schedule
at the current time, horizon stops resumed by a later ``run()``, and
``max_events`` pauses.  Both must fire the same events in the same order.

The system-level tests check ``run_trace`` on one replica
(``build_system``), a 3-replica cluster and a 2-shard region: a rejected
trace leaves the simulator untouched, and a list, a ``Trace``, a generator
and an out-of-order list replay identically.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.systems import build_system
from repro.workload.request import Request, RequestState
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def upfront(sim: Simulator, requests, callback) -> float:
    """The arrival loop every ``run_trace`` ran before the feed: schedule
    every request, in input order, before the first event fires."""
    last_arrival = 0.0
    for request in requests:
        if request.state is not RequestState.CREATED:
            raise ValueError(
                f"request {request.request_id} was already run; "
                "use Trace.fresh()")
        last_arrival = max(last_arrival, request.arrival_time)
        sim.schedule_at(request.arrival_time, callback, request)
    return last_arrival


def _requests(times) -> list[Request]:
    return [Request(i, t, 1, 1) for i, t in enumerate(times)]


#: Few distinct timestamps, so arrivals tie with each other and with every
#: other kind of event.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
STOPS = st.lists(
    st.one_of(st.tuples(st.just("until"), TIMES),
              st.tuples(st.just("max_events"), st.integers(0, 6))),
    max_size=4)


@dataclasses.dataclass
class Scenario:
    arrivals: list
    before: list
    after: list
    #: Delays each arrival's callback schedules a child event at, indexed by
    #: request id modulo the list's length; 0.0 is the current time.
    children: list
    stops: list


SCENARIOS = st.builds(
    Scenario,
    arrivals=st.lists(TIMES, max_size=12),
    before=st.lists(TIMES, max_size=4),
    after=st.lists(TIMES, max_size=4),
    children=st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=2),
                      max_size=4),
    stops=STOPS,
)


def _replay(schedule_arrivals, scenario: Scenario):
    """Fire ``scenario`` on a fresh simulator; return everything a caller
    could observe: the firing log, the clock after every stop, the last
    arrival, the seqs of the events scheduled after the arrivals, and the
    processed-event count."""
    sim = Simulator()
    log: list[tuple] = []

    def child(request_id: int, k: int) -> None:
        log.append((sim.now, "child", request_id, k))

    def arrive(request: Request) -> None:
        log.append((sim.now, "arrival", request.request_id))
        if scenario.children:
            delays = scenario.children[request.request_id
                                       % len(scenario.children)]
            for k, delay in enumerate(delays):
                sim.schedule(delay, child, request.request_id, k)

    for i, time in enumerate(scenario.before):
        sim.schedule_at(time, lambda i=i: log.append((sim.now, "before", i)))
    last_arrival = schedule_arrivals(sim, _requests(scenario.arrivals), arrive)
    after_seqs = [
        sim.schedule_at(time, lambda i=i: log.append((sim.now, "after", i))).seq
        for i, time in enumerate(scenario.after)]
    clocks = []
    for kind, value in scenario.stops:
        if kind == "until":
            sim.run(until=value)
        else:
            sim.run(max_events=value)
        clocks.append(sim.now)
    sim.run()
    assert sim.pending_events == 0
    return log, clocks, last_arrival, after_seqs, sim.processed_events


@settings(max_examples=300, deadline=None)
@given(SCENARIOS)
def test_feed_fires_like_the_upfront_loop(scenario):
    fed = _replay(Simulator.feed, scenario)
    assert fed == _replay(upfront, scenario)
    assert len(fed[0]) >= len(scenario.arrivals)


def test_feed_keeps_one_arrival_pending_and_copies_no_sorted_trace():
    sim = Simulator()
    requests = _requests(0.001 * i for i in range(10_000))
    fired = []
    tracemalloc.start()
    try:
        last_arrival = sim.feed(requests, fired.append)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000  # a copy of the list alone would be 80 kB
    assert last_arrival == requests[-1].arrival_time
    assert sim.pending_events == 1
    sim.run(until=5.0)
    assert sim.pending_events == 1
    assert len(fired) == sum(r.arrival_time <= 5.0 for r in requests)
    sim.run()
    assert sim.pending_events == 0 and len(fired) == len(requests)
    assert all(a is b for a, b in zip(fired, requests))


def test_feed_rejects_an_arrival_before_now_and_schedules_nothing():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="cannot schedule"):
        sim.feed(_requests([3.0, 1.0]), print)
    assert sim.pending_events == 0
    assert sim.schedule(0.0, print).seq == 1


# --------------------------------------------------------------------- #
# run_trace on one replica, a cluster and a region
# --------------------------------------------------------------------- #
def _system():
    return build_system("slora", predictor_accuracy=None, seed=0)


def _cluster():
    return MultiReplicaSystem.build(
        "slora", n_replicas=3, predictor_accuracy=None, seed=0)


def _region():
    return ServingRegion.build(
        "slora", n_replicas=2, predictor_accuracy=None, seed=0,
        region=RegionConfig(n_shards=2))


ENTRY_POINTS = pytest.mark.parametrize(
    "build", [_system, _cluster, _region], ids=["system", "cluster", "region"])


@ENTRY_POINTS
def test_a_rejected_trace_leaves_the_simulator_untouched(build):
    requests = [Request(i, 0.05 * i, 32, 4) for i in range(62)]
    _system().run_trace([requests[3]])  # request 3 was already run
    system = build()
    with pytest.raises(ValueError, match="request 3 was already run"):
        system.run_trace(requests)
    assert system.sim.pending_events == 0
    system.sim.run()
    assert system.sim.processed_events == 0
    assert [r for r in requests
            if r.state is not RequestState.CREATED] == [requests[3]]


@pytest.fixture(scope="module")
def trace():
    """Adapters from the pool that the systems above build by default."""
    return synthesize_trace(SPLITWISE_PROFILE, rps=6.0, duration=20.0,
                            rng=RngStreams(5).get("trace"),
                            registry=AdapterRegistry.build(LLAMA_7B, 100))


@ENTRY_POINTS
def test_any_iterable_replays_like_a_list(build, trace):
    def times(kind: str) -> list:
        requests = trace.fresh()
        feed = {
            "list": requests,
            "trace": dataclasses.replace(trace, requests=requests),
            "generator": (request for request in requests),
            "reversed": requests[::-1],
        }[kind]
        build().run_trace(feed)
        assert all(r.finished for r in requests)
        return [(r.first_token_time, r.finish_time) for r in requests]

    expected = times("list")
    assert len(expected) == len(trace) > 50
    for kind in ("trace", "generator", "reversed"):
        assert times(kind) == expected, kind
