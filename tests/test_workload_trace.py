"""Tests for trace synthesis, adapter assignment and trace copies."""

import numpy as np
import pytest

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.sim.rng import RngStreams
from repro.workload.request import RequestState
from repro.workload.trace import (
    LMSYS_PROFILE,
    SPLITWISE_PROFILE,
    TRACE_PROFILES,
    WILDCHAT_PROFILE,
    assign_adapters,
    synthesize_trace,
)


@pytest.fixture
def rng():
    return RngStreams(7).get("trace")


@pytest.fixture
def registry():
    return AdapterRegistry.build(LLAMA_7B, 100)


def test_trace_matches_rate(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=10.0, duration=300.0,
                             rng=rng, registry=registry)
    assert len(trace) == pytest.approx(3000, rel=0.1)
    assert all(0 <= r.arrival_time < 300.0 for r in trace)


def test_trace_lengths_follow_profile(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=30.0, duration=300.0,
                             rng=rng, registry=registry)
    assert trace.mean_input_tokens == pytest.approx(
        SPLITWISE_PROFILE.mean_input_tokens, rel=0.15)
    assert trace.mean_output_tokens == pytest.approx(
        SPLITWISE_PROFILE.mean_output_tokens, rel=0.15)


def test_trace_without_registry_is_base_only(rng):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=30.0, rng=rng)
    assert all(r.adapter_id is None for r in trace)


def test_every_request_gets_adapter(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=60.0,
                             rng=rng, registry=registry)
    assert all(r.adapter_id is not None for r in trace)
    assert all(0 <= r.adapter_id < 100 for r in trace)


def test_uniform_rank_popularity(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=60.0, duration=300.0,
                             rng=rng, registry=registry,
                             rank_popularity="uniform", adapter_popularity="uniform")
    ranks = [registry.get(r.adapter_id).rank for r in trace]
    counts = {rank: ranks.count(rank) for rank in (8, 16, 32, 64, 128)}
    share = np.array(list(counts.values())) / len(ranks)
    assert np.allclose(share, 0.2, atol=0.03)


def test_powerlaw_adapter_popularity_is_skewed(rng, registry):
    """§5.1: power-law adapter popularity within each rank."""
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=60.0, duration=300.0,
                             rng=rng, registry=registry,
                             adapter_popularity="powerlaw")
    rank8_ids = registry.ids_by_rank(8)
    uses = [r.adapter_id for r in trace if r.adapter_id in set(rank8_ids)]
    counts = sorted((uses.count(a) for a in rank8_ids), reverse=True)
    assert counts[0] > 3 * max(1, counts[-1])


def test_powerlaw_rank_popularity(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=60.0, duration=300.0,
                             rng=rng, registry=registry,
                             rank_popularity="powerlaw")
    ranks = [registry.get(r.adapter_id).rank for r in trace]
    assert ranks.count(8) > ranks.count(128)


def test_unknown_popularity_rejected(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=10.0, rng=rng)
    with pytest.raises(ValueError):
        assign_adapters(trace.requests, registry, rng, rank_popularity="bogus")
    with pytest.raises(ValueError):
        assign_adapters(trace.requests, registry, rng, adapter_popularity="bogus")


def test_profiles_registered():
    assert set(TRACE_PROFILES) == {"splitwise", "wildchat", "lmsys"}
    assert WILDCHAT_PROFILE.mean_input_tokens < SPLITWISE_PROFILE.mean_input_tokens
    assert LMSYS_PROFILE.mean_input_tokens < SPLITWISE_PROFILE.mean_input_tokens


def test_fresh_returns_pristine_copies(rng, registry):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=20.0,
                             rng=rng, registry=registry)
    trace.requests[0].state = RequestState.FINISHED
    trace.requests[0].tokens_generated = 99
    copies = trace.fresh()
    assert copies[0].state is RequestState.CREATED
    assert copies[0].tokens_generated == 0
    assert copies[0].input_tokens == trace.requests[0].input_tokens
    assert copies[0] is not trace.requests[0]
    for original, copy in zip(trace.requests, copies):
        assert (copy.request_id, copy.arrival_time, copy.adapter_id,
                copy.tenant_id, copy.slo_class) == (
            original.request_id, original.arrival_time,
            original.adapter_id, original.tenant_id, original.slo_class)
    # A copy shares no state: a migration recorded the way the cluster's
    # ``_migrate`` does, or a token timeline bound the way the engine
    # does, must not show up on the original.
    copy, original = copies[1], trace.requests[1]
    copy.migrated_at = [*copy.migrated_at, 1.0]
    copy.token_steps, copy.first_token_step = [2.0, 2.5, 3.0], 1
    copy.tokens_generated = 2
    assert copy.migrated_at == [1.0] and copy.retry_count == 1
    assert copy.token_times == [2.5, 3.0]
    assert list(original.migrated_at) == [] and original.retry_count == 0
    assert original.token_times == [] and original.tokens_generated == 0
