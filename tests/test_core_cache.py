"""Tests for the Chameleon Adapter Cache (§4.2)."""

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.core.cache import CachePrefetcher, ChameleonCacheManager
from repro.core.eviction import LruPolicy
from repro.hardware.gpu import A40_48GB, GB, GpuDevice
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.llm.model import LLAMA_7B
from repro.predictor.load_forecast import HistogramLoadPredictor
from repro.sim.simulator import Simulator
from repro.workload.request import Request


@pytest.fixture
def env():
    sim = Simulator()
    gpu = GpuDevice(A40_48GB)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, 20)
    mgr = ChameleonCacheManager(sim, gpu, link, registry)
    return sim, gpu, link, registry, mgr


def _request(adapter_id, rid=0):
    return Request(request_id=rid, arrival_time=0.0, input_tokens=10,
                   output_tokens=5, adapter_id=adapter_id)


def test_idle_adapter_is_cached_not_discarded(env):
    """The defining difference from S-LoRA (§4.2): idle adapters stay."""
    sim, gpu, link, registry, mgr = env
    mgr.acquire(0)
    sim.run()
    mgr.release(0)
    assert mgr.is_resident(0)
    assert gpu.used("adapter_cache") == registry.get(0).size_bytes
    assert gpu.used("adapter") == 0
    assert mgr.refcount(0) == 0


def test_reacquire_cached_adapter_is_hit(env):
    sim, gpu, link, registry, mgr = env
    mgr.acquire(0)
    sim.run()
    mgr.release(0)
    assert mgr.acquire(0).name == "RESIDENT"
    assert mgr.stats.hits == 1
    assert gpu.used("adapter") == registry.get(0).size_bytes
    assert gpu.used("adapter_cache") == 0


def test_cache_shrinks_under_memory_pressure(env):
    """Dynamic cache sizing (§4.2.1): eviction frees exactly enough bytes."""
    sim, gpu, link, registry, mgr = env
    for aid in (0, 1, 2):
        mgr.acquire(aid)
    sim.run()
    for aid in (0, 1, 2):
        mgr.release(aid)
    cached = gpu.used("adapter_cache")
    gpu.reserve("kv", gpu.free_bytes)  # all free memory taken by KV
    assert mgr.make_room(registry.get(0).size_bytes)
    assert gpu.used("adapter_cache") < cached
    assert gpu.free_bytes >= registry.get(0).size_bytes


def test_eviction_follows_policy_order(env):
    sim, gpu, link, registry, mgr = env
    # adapter 0 (rank 8, small) and adapter 4 (rank 128, large), equal usage.
    for aid in (0, 4):
        mgr.acquire(aid)
    sim.run()
    for aid in (0, 4):
        mgr.release(aid)
    gpu.reserve("kv", gpu.free_bytes)
    mgr.make_room(registry.get(0).size_bytes)
    assert not mgr.is_resident(0)   # small evicted first (cost-aware)
    assert mgr.is_resident(4)


def test_lru_policy_changes_victim(env):
    sim, gpu, link, registry, mgr = env
    mgr.policy = LruPolicy()
    for aid, t in ((0, None), (4, None)):
        mgr.acquire(aid)
    sim.run()
    mgr.release(0)
    mgr.release(4)
    mgr.entries[0].last_used = 100.0
    mgr.entries[4].last_used = 1.0   # LRU victim despite being large
    gpu.reserve("kv", gpu.free_bytes)
    mgr.make_room(registry.get(4).size_bytes)
    assert not mgr.is_resident(4)
    assert mgr.is_resident(0)


def test_queued_needed_adapters_spared_when_possible(env):
    """§4.2.2: adapters of queued requests are evicted only under pressure."""
    sim, gpu, link, registry, mgr = env
    for aid in (0, 1):
        mgr.acquire(aid)
    sim.run()
    mgr.release(0)
    mgr.release(1)
    mgr.set_queued_needed({1})
    gpu.reserve("kv", gpu.free_bytes)
    mgr.make_room(registry.get(0).size_bytes)
    assert not mgr.is_resident(0)   # non-queued tier evicted first
    assert mgr.is_resident(1)


def test_queued_needed_sacrificed_under_pressure(env):
    sim, gpu, link, registry, mgr = env
    mgr.acquire(1)
    sim.run()
    mgr.release(1)
    mgr.set_queued_needed({1})
    gpu.reserve("kv", gpu.free_bytes)
    assert mgr.make_room(registry.get(1).size_bytes)
    assert not mgr.is_resident(1)


def test_never_evicts_active_adapters(env):
    """§4.2.2: refcount > 0 means pinned, whatever the pressure."""
    sim, gpu, link, registry, mgr = env
    mgr.acquire(0)
    sim.run()
    gpu.reserve("kv", gpu.free_bytes)
    assert mgr.make_room(GB) is False
    assert mgr.is_resident(0)


def test_metadata_tracks_usage(env):
    sim, gpu, link, registry, mgr = env
    mgr.on_request_arrival(_request(3))
    entry = mgr.entry(3)
    assert entry.frequency >= 1.0
    assert entry.last_used == sim.now


def test_release_while_loading_then_complete_goes_to_cache(env):
    sim, gpu, link, registry, mgr = env
    mgr.acquire(2)
    mgr.release(2)          # requester squashed mid-load
    sim.run()
    assert mgr.is_resident(2)
    assert gpu.used("adapter_cache") == registry.get(2).size_bytes


def test_prefetcher_warms_periodic_adapter():
    sim = Simulator()
    gpu = GpuDevice(A40_48GB)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, 20)
    prefetcher = CachePrefetcher(sim, HistogramLoadPredictor(), interval=1.0,
                                 horizon=5.0, min_probability=0.2)
    mgr = ChameleonCacheManager(sim, gpu, link, registry,
                                prefetcher=prefetcher)
    # A strictly periodic adapter-3 pattern, fed to the prefetcher alone:
    # an arrival would load the adapter itself (arrival prefetch).
    for t in range(0, 40, 4):
        sim.schedule_at(float(t), prefetcher.record_use, 3, float(t))
    sim.run(until=41.0)
    assert prefetcher.prefetches_issued > 0
    assert mgr.is_resident(3) or mgr.is_loading(3)
