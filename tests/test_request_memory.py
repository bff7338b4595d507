"""Per-request memory does not grow with output length.

A request is slotted (no instance dict), and a finished request's
``token_times`` is a view of its engine's iteration end times, not a list
of its own.  ``summary()`` computes the TBT percentile from those shared
step lists, so its peak allocation stays far below one float per output
token.  perfbench's ``peak_rss_bytes_per_request`` measures the same thing
end to end; this gate keeps its shape in the tier-1 suite.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request, StepView
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

#: Bound on ``summary()``'s tracemalloc peak per output token.  Pooling
#: every token time into float arrays peaks at 33.7 B per token on this
#: run; the step-list path at about 4 B.
SUMMARY_PEAK_BYTES_PER_TOKEN = 8.0


@pytest.fixture(scope="module")
def cluster_run():
    """The run of ``test_chameleon_cluster_with_predictor_timelines``:
    3 chameleon replicas, 1,290 requests, 79,075 output tokens."""
    registry = AdapterRegistry.build(LLAMA_7B, 40)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=30.0, duration=30.0,
                             rng=RngStreams(11).get("trace"), registry=registry)
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, dispatch_policy="token_weighted",
        registry=registry, seed=11)
    system.run_trace(trace.fresh())
    return system


def test_requests_have_no_dict_and_no_per_token_list(cluster_run):
    assert not hasattr(Request(0, 0.0, 1, 1), "__dict__")
    requests = cluster_run.all_requests()
    assert requests and all(r.finished for r in requests)
    assert not any(hasattr(r, "__dict__") for r in requests)
    assert all(type(r.token_times) is StepView for r in requests)
    step_lists = {id(e._step_times) for e in cluster_run.engines}
    assert {id(r.token_times.steps) for r in requests} <= step_lists


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
