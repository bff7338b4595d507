"""Per-request memory: one tracked object per request, none per token.

A request is slotted (no instance dict), and it is the only object its
lifecycle leaves behind.  Its ``token_times`` is a view built on demand
from two slots the engine binds at the first token (its list of iteration
end times and the first token's index in it), so no per-request list or
view is kept.  ``migrated_at`` is an empty tuple until a migration rebinds
it, and the MLQ scheduler keeps its history as column deques instead of a
record per enqueue.  The allocation gate counts objects the garbage
collector tracks: the difference between a 30 s and a 60 s trace must be
exactly one per added request after synthesis, and again after a replay
and ``summary()``.  Object counts, unlike byte sizes, do not depend on the
Python version.  ``summary()`` computes the TBT percentile from the
engines' shared step lists, so its peak allocation stays far below one
float per output token.  Arrivals are fed to the event heap one at a
time, so the heap's peak, sampled at every arrival as perfbench samples
it, is the same for both traces and bounded by the fleet.
perfbench's ``peak_rss_bytes_per_request`` measures the same thing end to
end; these gates keep its shape in the tier-1 suite.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request, StepView
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

#: Bound on ``summary()``'s tracemalloc peak per output token.  Pooling
#: every token time into float arrays peaks at 33.7 B per token on this
#: run; the step-list path at about 4 B.
SUMMARY_PEAK_BYTES_PER_TOKEN = 8.0


def _trace(registry: AdapterRegistry, duration: float):
    return synthesize_trace(SPLITWISE_PROFILE, rps=30.0, duration=duration,
                            rng=RngStreams(11).get("trace"), registry=registry)


def _replay(registry: AdapterRegistry, requests: list) -> MultiReplicaSystem:
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, dispatch_policy="token_weighted",
        registry=registry, seed=11)
    system.run_trace(requests)
    return system


@pytest.fixture(scope="module")
def cluster_run():
    """The run of ``test_chameleon_cluster_with_predictor_timelines``:
    3 chameleon replicas, 1,290 requests, 79,075 output tokens."""
    registry = AdapterRegistry.build(LLAMA_7B, 40)
    return _replay(registry, _trace(registry, 30.0).fresh())


def _synthesized(registry, duration):
    trace = _trace(registry, duration)
    return trace, len(trace)


def _replayed(registry, duration):
    requests = _trace(registry, duration).fresh()
    system = _replay(registry, requests)
    system.summary()
    return (system, requests), len(requests)


def _settled_count() -> int:
    """Objects the collector tracks, once a collection stops untracking
    any: each collection untracks one more level of nested tuples that
    hold only untracked values, such as a fresh import's code constants."""
    count = -1
    while True:
        gc.collect()
        settled, count = count, len(gc.get_objects())
        if count == settled:
            return count


def _tracked_objects(build, registry, duration) -> tuple[int, int]:
    """Objects the collector tracks that ``build`` leaves alive, and the
    number of requests it built."""
    before = _settled_count()
    kept, n_requests = build(registry, duration)  # alive while counted
    return _settled_count() - before, n_requests


@pytest.mark.parametrize("build", [_synthesized, _replayed],
                         ids=["synthesized", "replayed"])
def test_a_request_is_one_tracked_object(build):
    registry = AdapterRegistry.build(LLAMA_7B, 40)
    build(registry, 30.0)  # first-use caches and lazy imports
    short_objects, short = _tracked_objects(build, registry, 30.0)
    long_objects, long = _tracked_objects(build, registry, 60.0)
    assert (short, long) == (1_290, 2_043)
    assert long_objects - short_objects == long - short


def _pending_peak(fleet: str, registry: AdapterRegistry,
                  duration: float) -> tuple[int, int]:
    """Largest ``sim.pending_events`` at any arrival of a replay, sampled in
    a wrapper on the instance's ``dispatch`` as perfbench does, and the
    number of replicas."""
    if fleet == "cluster":
        system = MultiReplicaSystem.build(
            "chameleon", n_replicas=3, dispatch_policy="token_weighted",
            registry=registry, seed=11)
        owner, replicas = system.cluster, 3
    else:
        system = ServingRegion.build(
            "chameleon", n_replicas=2, dispatch_policy="token_weighted",
            registry=registry, seed=11, region=RegionConfig(n_shards=2))
        owner, replicas = system, 4
    dispatch, peak = owner.dispatch, 0

    def sampled(request):
        nonlocal peak
        peak = max(peak, system.sim.pending_events)
        return dispatch(request)

    owner.dispatch = sampled
    requests = _trace(registry, duration).fresh()
    system.run_trace(requests)
    assert all(r.finished for r in requests)
    return peak, replicas


@pytest.mark.parametrize("fleet", ["cluster", "region"])
def test_pending_events_grow_with_the_fleet_not_the_trace(fleet):
    registry = AdapterRegistry.build(LLAMA_7B, 40)
    short, replicas = _pending_peak(fleet, registry, 30.0)
    long, _ = _pending_peak(fleet, registry, 60.0)
    assert short == long <= 2 * replicas + 1


def test_requests_have_no_dict_and_no_per_token_list(cluster_run):
    assert not hasattr(Request(0, 0.0, 1, 1), "__dict__")
    requests = cluster_run.all_requests()
    assert requests and all(r.finished for r in requests)
    assert not any(hasattr(r, "__dict__") for r in requests)
    assert all(type(r.token_times) is StepView for r in requests)
    step_lists = {id(e._step_times) for e in cluster_run.engines}
    assert {id(r.token_times.steps) for r in requests} <= step_lists


def test_requests_without_tokens_share_one_empty_view():
    fresh, rolled_back = Request(0, 0.0, 1, 1), Request(1, 0.0, 1, 1)
    rolled_back.token_times = [1.0, 2.0]
    rolled_back.token_steps = None  # what a squash's rollback does
    empty = fresh.token_times
    assert empty is rolled_back.token_times
    assert type(empty) is StepView and empty == [] and len(empty) == 0
    assert isinstance(empty.steps, tuple)  # nothing can grow it
    assert "token_steps" not in repr(fresh)
    assert fresh.migrated_at == () and fresh.retry_count == 0


def test_summary_peak_memory_is_below_a_float_per_output_token(cluster_run):
    tokens = sum(r.output_tokens for r in cluster_run.all_requests())
    assert tokens == 79_075
    tracemalloc.start()
    try:
        cluster_run.summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / tokens <= SUMMARY_PEAK_BYTES_PER_TOKEN
