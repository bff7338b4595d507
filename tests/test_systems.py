"""Tests for the system presets: wiring and end-to-end runnability."""

import pytest

from repro.core.cache import ChameleonCacheManager
from repro.core.eviction import (
    ChameleonScorePolicy,
    FairSharePolicy,
    GdsfPolicy,
    LruPolicy,
)
from repro.core.mlq import MlqScheduler
from repro.hardware.cluster import TensorParallelGroup
from repro.hardware.gpu import A100_80GB, GB
from repro.llm.model import LLAMA_13B
from repro.serving.adapter_manager import SloraAdapterManager
from repro.serving.engine import EngineConfig
from repro.serving.schedulers import FifoScheduler, SjfScheduler
from repro.sim.rng import RngStreams
from repro.systems import PRESETS, build_system
from repro.workload.request import Request, RequestState
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def _replica(preset, **kwargs):
    """The one replica ``build_system`` wires for ``preset``."""
    return build_system(preset, **kwargs).replicas[0]


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_builds_and_runs(preset, big_registry, rng_streams):
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=4.0, duration=10.0,
                             rng=rng_streams.get("trace"), registry=big_registry)
    system = build_system(preset, registry=big_registry, seed=0)
    system.run_trace(trace.fresh())
    summary = system.summary()
    assert summary.n_requests == len(trace)
    assert summary.p99_ttft > 0


def test_slora_wiring(big_registry):
    replica = _replica("slora", registry=big_registry)
    assert isinstance(replica.scheduler, FifoScheduler)
    assert isinstance(replica.adapter_manager, SloraAdapterManager)


def test_slora_sjf_wiring(big_registry):
    replica = _replica("slora_sjf", registry=big_registry)
    assert isinstance(replica.scheduler, SjfScheduler)


def test_slora_chunked_sets_chunk_size(big_registry):
    replica = _replica("slora_chunked", registry=big_registry)
    assert replica.engine.config.chunk_size is not None


def test_slora_chunked_preserves_caller_engine_config(big_registry):
    """Regression: the chunked rebuild copied only 4 of 8 EngineConfig
    fields, silently resetting the caller's other knobs."""
    from repro.serving.engine import EngineConfig
    from repro.systems import DEFAULT_CHUNK_SIZE

    custom = EngineConfig(
        memory_telemetry_interval=2.0,
        load_stall_bandwidth=None,
        max_batch_size=99,
    )
    replica = _replica("slora_chunked", registry=big_registry,
                       engine_config=custom)
    config = replica.engine.config
    assert config.chunk_size == DEFAULT_CHUNK_SIZE
    assert config.memory_telemetry_interval == 2.0
    assert config.load_stall_bandwidth is None
    assert config.max_batch_size == 99


def test_chameleon_wiring(big_registry):
    replica = _replica("chameleon", registry=big_registry)
    assert isinstance(replica.scheduler, MlqScheduler)
    assert isinstance(replica.adapter_manager, ChameleonCacheManager)
    assert isinstance(replica.adapter_manager.policy, ChameleonScorePolicy)
    assert not isinstance(replica.adapter_manager.policy, FairSharePolicy)


def test_ablation_wiring(big_registry):
    nocache = _replica("chameleon_nocache", registry=big_registry)
    assert isinstance(nocache.scheduler, MlqScheduler)
    assert isinstance(nocache.adapter_manager, SloraAdapterManager)
    nosched = _replica("chameleon_nosched", registry=big_registry)
    assert isinstance(nosched.scheduler, FifoScheduler)
    assert isinstance(nosched.adapter_manager, ChameleonCacheManager)


def test_cache_policy_presets(big_registry):
    assert isinstance(
        _replica("chameleon_lru", registry=big_registry).adapter_manager.policy,
        LruPolicy)
    assert isinstance(
        _replica("chameleon_fairshare", registry=big_registry).adapter_manager.policy,
        FairSharePolicy)
    assert isinstance(
        _replica("chameleon_gdsf", registry=big_registry).adapter_manager.policy,
        GdsfPolicy)


def test_prefetch_preset_attaches_prefetcher(big_registry):
    replica = _replica("chameleon_prefetch", registry=big_registry)
    assert replica.adapter_manager.prefetcher is not None
    assert _replica("chameleon", registry=big_registry
                    ).adapter_manager.prefetcher is None


def test_static_preset(big_registry):
    replica = _replica("chameleon_static", registry=big_registry)
    assert replica.scheduler.config.static_k == 4
    assert len(replica.scheduler.queues) == 4


def test_outputonly_preset(big_registry):
    replica = _replica("chameleon_outputonly", registry=big_registry)
    assert replica.scheduler.config.wrs_params.mode == "output_only"


def test_unknown_preset_rejected(big_registry):
    with pytest.raises(ValueError):
        build_system("bogus", registry=big_registry)


def test_predictorless_mlq_rejected(big_registry):
    with pytest.raises(ValueError):
        build_system("chameleon", registry=big_registry, predictor_accuracy=None)


def test_predictorless_fifo_allowed(big_registry):
    replica = _replica("slora", registry=big_registry, predictor_accuracy=None)
    assert replica.predictor is None


def test_tp_build_uses_group(big_registry):
    replica = _replica("chameleon", registry=big_registry,
                       gpu=A100_80GB, tp_degree=4)
    assert isinstance(replica.gpu, TensorParallelGroup)
    assert replica.gpu.capacity == 4 * 80 * GB
    assert replica.cost_model.compute_speedup > 1.0


def test_tp_with_memory_override_rejected(big_registry):
    with pytest.raises(ValueError):
        build_system("chameleon", registry=big_registry, tp_degree=2,
                     gpu_memory_bytes=10 * GB)


def test_memory_override(big_registry):
    replica = _replica("slora", registry=big_registry,
                       gpu=A100_80GB, gpu_memory_bytes=24 * GB)
    assert replica.gpu.capacity == 24 * GB


def test_other_models(rng_streams):
    from repro.adapters.registry import AdapterRegistry

    registry = AdapterRegistry.build(LLAMA_13B, 20)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=2.0, duration=10.0,
                             rng=rng_streams.get("trace"), registry=registry)
    system = build_system("chameleon", model=LLAMA_13B, gpu=A100_80GB,
                          registry=registry)
    system.run_trace(trace.fresh())
    assert system.summary().n_requests == len(trace)
    assert system.replicas[0].engine.model is LLAMA_13B


def test_registry_built_when_missing():
    replica = _replica("slora", n_adapters=25)
    assert len(replica.engine.registry) == 25


# ----------------------------------------------------------------------- #
# GPU-zoo name resolution (heterogeneous replica specs, CLI fleets)
# ----------------------------------------------------------------------- #
def test_build_system_accepts_gpu_name(big_registry):
    replica = _replica("slora", gpu="a100-80gb", registry=big_registry,
                       predictor_accuracy=None)
    assert replica.gpu.spec.name == "a100-80gb"
    assert replica.cost_model.gpu.name == "a100-80gb"


def test_build_system_rejects_unknown_gpu_name(big_registry):
    with pytest.raises(ValueError):
        build_system("slora", gpu="not-a-gpu", registry=big_registry,
                     predictor_accuracy=None)


def test_resolve_gpu_passthrough_and_lookup():
    from repro.hardware.gpu import A40_48GB
    from repro.systems import resolve_gpu

    assert resolve_gpu(A40_48GB) is A40_48GB
    assert resolve_gpu("a40-48gb") is A40_48GB
    with pytest.raises(ValueError):
        resolve_gpu("h100-999gb")


@pytest.mark.parametrize("preset", ["chameleon", "slora"])
@pytest.mark.parametrize("adapter_id", [-1, 100])
def test_submit_rejects_an_unknown_adapter_before_any_change(
        preset, adapter_id, big_registry):
    """An adapter id outside the registry raises before the engine marks,
    records, counts or queues the request (an MLQ reading per-adapter
    lists would otherwise take -1 for the last adapter)."""
    replica = _replica(preset, registry=big_registry)
    engine = replica.engine
    request = Request(request_id=1, arrival_time=0.0, input_tokens=10,
                      output_tokens=5, adapter_id=adapter_id)
    with pytest.raises(KeyError, match=f"adapter id {adapter_id}"):
        engine.submit(request)
    assert request.state is RequestState.CREATED
    assert request.enqueue_time is None
    assert request.predicted_output_tokens is None
    assert engine.all_requests == []
    assert engine.in_flight_token_load() == 0
    assert engine.in_flight_count() == 0
    assert engine.scheduler.queue_len() == 0
    assert engine.sim.pending_events == 0
    # The engine still serves a valid request normally.
    valid = Request(request_id=2, arrival_time=0.0, input_tokens=10,
                    output_tokens=5, adapter_id=99)
    engine.submit(valid)
    engine.sim.run()
    assert valid.finished and engine.all_requests == [valid]


def test_memory_telemetry_without_a_horizon_samples_until_the_last_arrival(
        big_registry):
    """Without a horizon the clock sampler runs from 0.0 to the last
    arrival, so idle stretches leave no gaps in the memory timeline."""
    interval = 2.0
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=1.0, duration=120.0,
                             rng=RngStreams(0).get("trace"),
                             registry=big_registry)
    system = build_system(
        "chameleon", registry=big_registry,
        engine_config=EngineConfig(memory_telemetry_interval=interval))
    system.run_trace(trace.fresh())
    times = [sample.time for sample in system.replicas[0].gpu.samples]
    last_arrival = max(r.arrival_time for r in trace)
    assert times[0] == 0.0
    covered = [t for t in times if t <= last_arrival]
    assert last_arrival - covered[-1] < interval
    assert max(b - a for a, b in zip(covered, covered[1:])) <= interval
    assert all(r.finished for r in system.all_requests())
