"""Tests for the continuous-batching serving engine."""

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import A40_48GB, GB, GpuDevice
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B
from repro.serving.adapter_manager import SloraAdapterManager
from repro.serving.engine import (
    PREFILL_TOKEN_BUDGET,
    EngineConfig,
    ServingEngine,
)
from repro.serving.schedulers import FifoScheduler
from repro.sim.simulator import Simulator
from repro.workload.request import Request, RequestState

from engine_oracle import run_engine, token_gaps


def make_engine(
    n_adapters=20,
    config=None,
    gpu_memory=None,
    scheduler=None,
    manager_cls=SloraAdapterManager,
):
    sim = Simulator()
    gpu = GpuDevice(A40_48GB, memory_bytes=gpu_memory)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters)
    cost_model = CostModel(LLAMA_7B, A40_48GB)
    scheduler = scheduler or FifoScheduler()
    manager = manager_cls(sim, gpu, link, registry)
    engine = ServingEngine(
        sim=sim, gpu=gpu, link=link, model=LLAMA_7B, cost_model=cost_model,
        registry=registry, scheduler=scheduler, adapter_manager=manager,
        predictor=None, config=config or EngineConfig(),
    )
    return engine


def _req(rid=0, arrival=0.0, inp=100, out=5, adapter_id=None):
    return Request(request_id=rid, arrival_time=arrival, input_tokens=inp,
                   output_tokens=out, adapter_id=adapter_id)


def test_single_base_request_timeline():
    engine = make_engine()
    request = _req(out=3)
    run_engine(engine, [request])
    assert request.finished
    cm = engine.cost_model
    expected_ttft = cm.params.iteration_overhead + cm.prefill_time(100)
    assert request.ttft == pytest.approx(expected_ttft, rel=1e-6)
    assert len(request.token_times) == 3
    assert request.finish_time > request.first_token_time


def test_single_adapter_request_includes_load_time():
    engine = make_engine()
    request = _req(adapter_id=0, out=1)
    run_engine(engine, [request])
    load = engine.link.transfer_time(engine.registry.get(0).size_bytes)
    cm = engine.cost_model
    expected = load + cm.params.iteration_overhead + cm.prefill_time(100, 8)
    assert request.ttft == pytest.approx(expected, rel=1e-6)
    assert request.adapter_load_critical_path == pytest.approx(load, rel=1e-6)


def test_resident_adapter_no_critical_path():
    engine = make_engine()
    warm = _req(rid=0, arrival=0.0, adapter_id=0, out=20)
    # Second request arrives while the first still runs: adapter resident.
    reuse = _req(rid=1, arrival=0.05, adapter_id=0, out=2)
    run_engine(engine, [warm, reuse])
    assert reuse.adapter_load_critical_path == 0.0
    assert engine.adapter_manager.stats.hits >= 1


def test_continuous_batching_mid_flight_admission():
    engine = make_engine()
    a = _req(rid=0, arrival=0.0, out=50)
    b = _req(rid=1, arrival=0.2, out=5)
    run_engine(engine, [a, b])
    assert a.finished and b.finished
    # b joined while a was decoding and finished long before a.
    assert b.finish_time < a.finish_time


def test_tbt_gaps_positive_and_bounded():
    engine = make_engine()
    request = _req(out=20)
    run_engine(engine, [request])
    gaps = token_gaps(request)
    assert len(gaps) == 19
    assert all(g > 0 for g in gaps)


def test_memory_released_on_finish():
    engine = make_engine()
    request = _req(out=2, adapter_id=3)
    run_engine(engine, [request])
    assert engine.gpu.used("kv") == 0
    # S-LoRA discards the idle adapter afterwards.
    assert engine.gpu.used("adapter") == 0


def test_kv_reservation_while_running():
    engine = make_engine()
    seen = []
    request = _req(out=4)

    def probe():
        seen.append(engine.gpu.used("kv"))

    engine.sim.schedule_at(0.01, probe)
    run_engine(engine, [request])
    expected = (100 + 4) * LLAMA_7B.kv_bytes_per_token
    assert seen == [expected]


def test_batch_size_cap_enforced():
    config = EngineConfig(max_batch_size=2)
    engine = make_engine(config=config)
    reqs = [_req(rid=i, arrival=0.0, out=30) for i in range(5)]
    run_engine(engine, reqs)
    assert all(r.finished for r in reqs)
    # The third request had to wait for a slot.
    assert reqs[2].queueing_delay > 0


def test_memory_pressure_defers_admission():
    # Tiny GPU: weights ~12.6 GiB + activations 1 GiB leave ~2.4 GiB for KV.
    engine = make_engine(gpu_memory=16 * GB)
    big = _req(rid=0, inp=3500, out=500)   # 2 GiB of KV: only one fits
    second = _req(rid=1, inp=3500, out=500)
    run_engine(engine, [big, second])
    assert big.finished and second.finished
    assert second.admit_time >= big.finish_time


def test_oversized_request_rejected_forever_is_not_silent():
    """A request that can never fit keeps the engine alive but unfinished."""
    engine = make_engine(gpu_memory=16 * GB)
    impossible = _req(inp=4000, out=4000)  # ~4 GB KV > capacity
    run_engine(engine, [impossible], horizon=5.0)
    assert not impossible.finished


def test_chunked_prefill_splits_large_prefill():
    config = EngineConfig(chunk_size=64)
    engine = make_engine(config=config)
    request = _req(inp=256, out=2)
    run_engine(engine, [request])
    assert request.finished
    # 256 input tokens at 64/iteration: at least 4 prefill iterations.
    assert engine.stats.iterations >= 4


def test_prefill_budget_creates_hol_blocking():
    engine = make_engine()
    # A short request keeps the engine busy, so the next two arrivals
    # queue and are admitted together at the next iteration.
    warm = _req(rid=0, arrival=0.0, inp=10, out=5)
    huge = _req(rid=1, arrival=1e-4, inp=4000, out=2)
    small = _req(rid=2, arrival=1e-4, inp=200, out=2)
    run_engine(engine, [warm, huge, small])
    assert huge.admit_time == small.admit_time > warm.admit_time
    # 4,000 + 200 prompt tokens overflow the 4,096-token budget: the small
    # one's prefill waits a full iteration behind the huge head-of-line
    # prefill.
    assert small.first_token_time > huge.first_token_time


def test_oversized_prefill_runs_alone():
    engine = make_engine()
    request = _req(inp=2 * PREFILL_TOKEN_BUDGET, out=2)
    run_engine(engine, [request])
    assert request.finished
    assert engine.stats.iterations == 2  # one prefill, one decode


def test_squash_rolls_back_progress():
    engine = make_engine()
    request = _req(out=50, adapter_id=0)
    run_engine(engine, [request], horizon=0.3)
    assert request.state is RequestState.DECODE
    assert request.tokens_generated > 0
    engine.squash(request)
    assert request.state is RequestState.QUEUED
    assert request.tokens_generated == 0
    assert request.token_times == []
    assert request.squash_count == 1
    assert engine.gpu.used("kv") == 0
    # The squashed request re-runs to completion.
    engine.sim.run()
    assert request.finished


def test_squash_not_in_flight_raises():
    engine = make_engine()
    with pytest.raises(RuntimeError):
        engine.squash(_req())


def test_rerunning_used_requests_rejected():
    engine = make_engine()
    request = _req(out=2)
    run_engine(engine, [request])
    engine2 = make_engine()
    with pytest.raises(ValueError):
        run_engine(engine2, [request])


def test_load_stall_charged_when_busy():
    config = EngineConfig(load_stall_bandwidth=1 * GB)
    engine = make_engine(config=config)
    # One long-running request keeps the engine busy while the second's
    # adapter (rank 128 -> 256 MB) transfers.
    runner = _req(rid=0, arrival=0.0, out=400)
    misser = _req(rid=1, arrival=0.1, out=2, adapter_id=4)
    run_engine(engine, [runner, misser])
    assert engine.stats.stall_time > 0.2  # ~256 MB / 1 GB/s


def test_no_stall_when_engine_idle():
    config = EngineConfig(load_stall_bandwidth=1 * GB)
    engine = make_engine(config=config)
    request = _req(adapter_id=4, out=2)
    run_engine(engine, [request])
    assert engine.stats.stall_time == 0.0


def test_stats_accumulate():
    engine = make_engine()
    reqs = [_req(rid=i, arrival=0.01 * i, out=3) for i in range(5)]
    run_engine(engine, reqs)
    assert engine.stats.admissions == 5
    assert engine.stats.prefill_tokens == 5 * 100
    assert engine.stats.iterations > 0
    assert engine.stats.busy_time > 0


def test_memory_telemetry_sampling():
    config = EngineConfig(memory_telemetry_interval=0.05)
    engine = make_engine(config=config)
    engine.sim.feed([_req(out=30)], engine.submit)
    engine.start_memory_sampling(1.0)
    engine.sim.run(until=1.0)
    assert engine.gpu.samples[0].time == 0.0
    assert len(engine.gpu.samples) >= 2
    assert all(s.usage.get("weights") == LLAMA_7B.weight_bytes
               for s in engine.gpu.samples)


def test_total_token_capacity():
    engine = make_engine()
    usable = engine.gpu.capacity - LLAMA_7B.weight_bytes - 1 * GB
    assert engine.total_token_capacity == usable // LLAMA_7B.kv_bytes_per_token


def test_in_flight_count():
    engine = make_engine()
    assert engine.in_flight_count() == 0


# --------------------------------------------------------------------- #
# Cluster-facing views and hooks
# --------------------------------------------------------------------- #
def _bare_engine():
    """An engine built WITHOUT an explicit config (default-argument path)."""
    sim = Simulator()
    gpu = GpuDevice(A40_48GB)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, 5)
    return ServingEngine(
        sim=sim, gpu=gpu, link=link, model=LLAMA_7B,
        cost_model=CostModel(LLAMA_7B, A40_48GB), registry=registry,
        scheduler=FifoScheduler(),
        adapter_manager=SloraAdapterManager(sim, gpu, link, registry),
    )


def test_engine_default_config_is_not_aliased():
    """Regression: a mutable default EngineConfig() was shared by every
    engine built without a config, so one engine's knobs leaked into all."""
    first, second = _bare_engine(), _bare_engine()
    assert first.config is not second.config
    first.config.max_batch_size = 1
    assert second.config.max_batch_size == 256


class _SquashAfter(FifoScheduler):
    """FIFO that squashes ``victim`` at the first iteration start after it
    has generated ``tokens`` tokens (the path the MLQ bypass squash takes).

    The engine holds a decoding request's progress, so the tokens are
    counted here: one per iteration start after the first token."""

    def __init__(self, victim, tokens):
        super().__init__()
        self.victim, self.tokens = victim, tokens
        self.starts = 0

    def select(self, ctx):
        victim = self.victim
        if victim is not None and victim.first_token_time is not None:
            self.starts += 1
            if self.starts == self.tokens:
                self.victim = None
                ctx.squash(victim)
        super().select(ctx)


def test_in_flight_token_load_uses_sizes():
    request = _req(rid=0, inp=100, out=40)
    engine = make_engine(config=EngineConfig(chunk_size=60),
                         scheduler=_SquashAfter(request, tokens=2))
    # Read the load after each iteration end, which includes the start of
    # the next iteration (where the squash happens).
    loads = []
    end_iteration = engine._end_iteration

    def _end_iteration(plan):
        end_iteration(plan)
        loads.append(engine.in_flight_token_load())

    engine._end_iteration = _end_iteration
    engine.submit(request)
    # No predictor: remaining prefill + true remaining decode.
    assert engine.in_flight_token_load() == pytest.approx(140.0)
    engine.sim.run()
    assert loads[:2] == [
        80,        # partial prefill: 100 - 60 left, 40 to decode
        39,        # prefill done and the first token out
    ]
    assert loads[2] == 140  # a decode step, then squashed: all owed again
    assert loads[3:5] == [80, 39]  # served again from the start
    assert loads[5:-1] == list(range(38, 0, -1))  # one decode step each
    assert loads[-1] == 0  # finished
    assert request.finished and request.squash_count == 1
    assert engine.in_flight_token_load() == 0


def test_on_finish_hook_fires_per_completion():
    engine = make_engine()
    finished = []
    engine.on_finish(finished.append)
    requests = [_req(rid=0, out=2), _req(rid=1, arrival=0.01, out=2)]
    run_engine(engine, requests)
    assert sorted(r.request_id for r in finished) == [0, 1]


# --------------------------------------------------------------------- #
# Finish hooks that resubmit (the cluster drain path)
# --------------------------------------------------------------------- #
def test_finish_hook_drain_does_not_double_finish():
    """Regression for the PR 1 mid-iteration double-finish bug: a finish
    hook that submits new work (exactly what the cluster's queue drain
    does) kicks a fresh iteration from inside the finish path — that
    iteration must not capture requests that are finished but not yet
    removed from the batch, finishing them twice."""
    engine = make_engine(config=EngineConfig(max_batch_size=2))
    first, second = _req(rid=0, out=3), _req(rid=1, out=3)
    late = _req(rid=2, out=2)
    finished_ids = []
    resubmitted = []

    def drain_like_hook(request):
        finished_ids.append(request.request_id)
        if not resubmitted:
            resubmitted.append(True)
            engine.submit(late)  # a freed slot pulls queued work immediately

    engine.on_finish(drain_like_hook)
    run_engine(engine, [first, second])  # same size: they finish together
    assert sorted(finished_ids) == [0, 1, 2]  # each finished exactly once
    assert all(r.finished for r in (first, second, late))
    assert len(engine.all_requests) == 3


def test_finish_hook_chain_of_resubmissions_each_finish_once():
    """A drain that refills the batch on every finish (sustained cluster
    backpressure) must still finish every request exactly once."""
    engine = make_engine(config=EngineConfig(max_batch_size=2))
    backlog = [_req(rid=10 + i, out=2) for i in range(4)]
    finished_ids = []

    def hook(request):
        finished_ids.append(request.request_id)
        if backlog:
            engine.submit(backlog.pop(0))

    engine.on_finish(hook)
    run_engine(engine, [_req(rid=0, out=2), _req(rid=1, out=3)])
    assert sorted(finished_ids) == [0, 1, 10, 11, 12, 13]
    assert len(finished_ids) == len(set(finished_ids))


# --------------------------------------------------------------------- #
# Capability (heterogeneous-fleet load normalization)
# --------------------------------------------------------------------- #
def test_capability_ratio_tracks_gpu_specs():
    from repro.hardware.gpu import A100_80GB

    a40 = make_engine()
    sim = Simulator()
    gpu = GpuDevice(A100_80GB)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, 5)
    a100 = ServingEngine(
        sim=sim, gpu=gpu, link=link, model=LLAMA_7B,
        cost_model=CostModel(LLAMA_7B, A100_80GB),
        registry=registry, scheduler=FifoScheduler(),
        adapter_manager=SloraAdapterManager(sim, gpu, link, registry),
        predictor=None, config=EngineConfig(),
    )
    expected = ((A100_80GB.peak_tflops * A100_80GB.mem_bandwidth_bytes)
                / (A40_48GB.peak_tflops * A40_48GB.mem_bandwidth_bytes)) ** 0.5
    assert a100.capability() / a40.capability() == pytest.approx(expected)
    assert a40.capability() > 0


def test_capability_scales_with_tp_speedup():
    from repro.hardware.cluster import TensorParallelGroup

    sim = Simulator()
    group = TensorParallelGroup(A40_48GB, tp_degree=2)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, 5)
    engine = ServingEngine(
        sim=sim, gpu=group, link=link, model=LLAMA_7B,
        cost_model=CostModel(LLAMA_7B, A40_48GB,
                             compute_speedup=group.compute_speedup),
        registry=registry, scheduler=FifoScheduler(),
        adapter_manager=SloraAdapterManager(sim, group, link, registry),
        predictor=None, config=EngineConfig(),
    )
    single = make_engine()
    assert engine.capability() / single.capability() == pytest.approx(
        group.compute_speedup)
