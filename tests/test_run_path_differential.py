"""``build_system`` (a 1-replica cluster) replays the bare engine exactly.

The oracle is the engine-only run loop in ``tests/engine_oracle.py``: the
same preset wired by ``build_replica`` on its own clock, arrivals fed
straight to ``engine.submit``.  For every preset, the cluster path must
give every request the same first-token time, finish time and token count,
bit for bit, after the same number of simulator events.
"""

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.serving.engine import EngineConfig
from repro.sim.rng import RngStreams
from repro.systems import PRESETS, build_system
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

from engine_oracle import engine_replica, run_engine


def _hex(value):
    return None if value is None else value.hex()


def _fingerprint(requests):
    return [(r.request_id, _hex(r.first_token_time), _hex(r.finish_time),
             r.tokens_generated) for r in requests]


@pytest.fixture(scope="module")
def registry():
    return AdapterRegistry.build(LLAMA_7B, 100)


@pytest.fixture(scope="module")
def trace(registry):
    # 10 RPS for 60 s queues on one engine, so admission order, eviction
    # and (under the MLQ) squashes all shape the result.
    return synthesize_trace(SPLITWISE_PROFILE, rps=10.0, duration=60.0,
                            rng=RngStreams(3).get("trace"), registry=registry)


@pytest.mark.parametrize("preset", PRESETS)
def test_build_system_replays_the_bare_engine(preset, trace, registry):
    oracle = engine_replica(preset, registry=registry, seed=0)
    run_engine(oracle.engine, trace.fresh())
    system = build_system(preset, registry=registry, seed=0)
    system.run_trace(trace.fresh())
    expected = _fingerprint(oracle.engine.all_requests)
    assert len(expected) == len(trace)
    assert _fingerprint(system.all_requests()) == expected
    assert system.sim.processed_events == oracle.engine.sim.processed_events


def test_memory_telemetry_samples_like_the_bare_engine(trace, registry):
    """A horizon starts the GPU-memory sampler, which also samples while
    the engine idles; the horizon stops the run before the trace ends."""
    config = EngineConfig(memory_telemetry_interval=2.0)
    oracle = engine_replica("chameleon", registry=registry,
                            engine_config=config)
    run_engine(oracle.engine, trace.fresh(), horizon=45.0)
    system = build_system("chameleon", registry=registry,
                          engine_config=config)
    system.run_trace(trace.fresh(), horizon=45.0)
    samples = system.replicas[0].gpu.samples
    assert len(samples) > 20
    assert samples == oracle.gpu.samples
    assert _fingerprint(system.all_requests()) == _fingerprint(
        oracle.engine.all_requests)
    assert any(r.finish_time is None for r in system.all_requests())
    assert system.sim.processed_events == oracle.engine.sim.processed_events
