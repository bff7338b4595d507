"""Golden digests of every request's token timeline.

The perfbench digest covers only each request's first-token and finish
times, shed and lost flags.  Every TBT number is computed from
``token_times``, so this gate hashes, per request in request-id order,
``(request_id, tokens_generated, token_times)`` with floats written exactly,
plus the run's ``summary().p99_tbt``.  Any change to when a token is
emitted, or to how many are counted, moves a digest.

The constants were recorded before the engine's decode step became
event-driven; an intended change to them is a re-baseline and needs a
CHANGES.md line.
"""

from __future__ import annotations

import hashlib

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import GB
from repro.llm.model import LLAMA_7B
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.systems import build_system
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

CLUSTER_DIGEST = (
    "8f513880e7d8d86ab0983005aea0504c7a722b73b152d63e0254d56c7e90b0d7")
SQUASH_DIGEST = (
    "ba8eb82e2c8cdaa3978456689f91260cad6b70ca549361ea97845bd8b6d63bf2")


def timeline_digest(requests, p99_tbt: float) -> str:
    h = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.request_id):
        times = ",".join(repr(t) for t in r.token_times)
        h.update(f"{r.request_id},{r.tokens_generated},{times}\n".encode())
    h.update(f"p99_tbt={p99_tbt!r}\n".encode())
    return h.hexdigest()


def _assert_complete(requests) -> None:
    for r in requests:
        assert r.finished
        assert r.tokens_generated == r.output_tokens == len(r.token_times)
        assert r.token_times[0] == r.first_token_time
        assert r.token_times[-1] == r.finish_time


def test_chameleon_cluster_with_predictor_timelines():
    registry = AdapterRegistry.build(LLAMA_7B, 40)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=30.0, duration=30.0,
                             rng=RngStreams(11).get("trace"), registry=registry)
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=3, dispatch_policy="token_weighted",
        registry=registry, seed=11)
    assert all(e.predictor is not None for e in system.engines)
    system.run_trace(trace.fresh())
    requests = system.all_requests()
    assert len(requests) == len(trace)
    _assert_complete(requests)
    # Predictions both over- and under-shoot the true lengths.
    assert any(r.predicted_output_tokens > r.output_tokens for r in requests)
    assert any(r.predicted_output_tokens < r.output_tokens for r in requests)
    assert timeline_digest(
        requests, system.summary().p99_tbt) == CLUSTER_DIGEST


def test_squash_heavy_engine_timelines():
    """The setup of ``test_chameleon_bypass_and_squash_on_a_15_gib_gpu``:
    bypassers are squashed mid-decode and replayed from the start."""
    registry = AdapterRegistry.build(LLAMA_7B, 10, ranks=(128,))
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=30.0,
                             rng=RngStreams(4).get("trace"), registry=registry)
    system = build_system("chameleon", registry=registry,
                          gpu_memory_bytes=15 * GB, seed=4)
    system.run_trace(trace.fresh(), horizon=600.0)
    requests = system.all_requests()
    assert system.replicas[0].engine.stats.squashes > 0
    _assert_complete(requests)
    assert timeline_digest(
        requests, system.summary().p99_tbt) == SQUASH_DIGEST
