"""End-to-end paired-trace comparisons: the paper's headline behaviours."""

import pytest

from repro.systems import build_system
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def _run(preset, trace, registry, **kwargs):
    system = build_system(preset, registry=registry, seed=0, **kwargs)
    system.run_trace(trace.fresh())
    return system


def test_chameleon_hit_rate_beats_slora(loaded_trace, big_registry):
    """Caching idle adapters must raise the hit rate dramatically (§5.2.5)."""
    slora = _run("slora", loaded_trace, big_registry)
    cham = _run("chameleon", loaded_trace, big_registry)
    cham_rate = cham.replicas[0].adapter_manager.stats.hit_rate
    slora_rate = slora.replicas[0].adapter_manager.stats.hit_rate
    assert cham_rate > 0.85
    assert cham_rate > slora_rate + 0.15


def test_chameleon_improves_p99_ttft_under_load(loaded_trace, big_registry):
    """Figure 11's ordering at one load point."""
    slora = _run("slora", loaded_trace, big_registry)
    cham = _run("chameleon", loaded_trace, big_registry)
    s1 = slora.summary(warmup=10.0)
    s2 = cham.summary(warmup=10.0)
    assert s2.p99_ttft < s1.p99_ttft
    assert s2.p50_ttft < s1.p50_ttft


def test_chameleon_reduces_critical_path_loading(loaded_trace, big_registry):
    """Figure 14: most Chameleon requests pay zero loading latency."""
    cham = _run("chameleon", loaded_trace, big_registry)
    done = [r for r in cham.all_requests() if r.finished]
    zero_load = sum(1 for r in done if r.adapter_load_critical_path == 0.0)
    assert zero_load / len(done) > 0.7
    slora = _run("slora", loaded_trace, big_registry)
    done_s = [r for r in slora.all_requests() if r.finished]
    zero_s = sum(1 for r in done_s if r.adapter_load_critical_path == 0.0)
    assert zero_load / len(done) > zero_s / len(done_s)


def test_chameleon_reduces_pcie_traffic(loaded_trace, big_registry):
    slora = _run("slora", loaded_trace, big_registry)
    cham = _run("chameleon", loaded_trace, big_registry)
    assert (cham.replicas[0].link.total_bytes_moved
            < 0.5 * slora.replicas[0].link.total_bytes_moved)


def test_same_seed_is_deterministic(tiny_trace, big_registry):
    a = _run("chameleon", tiny_trace, big_registry)
    b = _run("chameleon", tiny_trace, big_registry)
    ra = [(r.request_id, r.first_token_time, r.finish_time) for r in a.all_requests()]
    rb = [(r.request_id, r.first_token_time, r.finish_time) for r in b.all_requests()]
    assert ra == rb


def test_memory_fully_released_after_run(tiny_trace, big_registry):
    system = _run("chameleon", tiny_trace, big_registry)
    engine = system.replicas[0].engine
    gpu = engine.gpu
    # Only static reservations and the adapter cache may remain.
    assert gpu.used("kv") == 0
    assert gpu.used("adapter") == 0
    assert gpu.used("weights") == engine.model.weight_bytes
    assert gpu.used("adapter_cache") >= 0
    assert all(r.finished for r in engine.all_requests)


def test_slora_leaves_no_cache_behind(tiny_trace, big_registry):
    system = _run("slora", tiny_trace, big_registry)
    assert system.replicas[0].gpu.used("adapter") == 0
    assert system.replicas[0].gpu.used("adapter_cache") == 0


def test_sjf_starves_long_requests(big_registry, rng_streams):
    """Figure 16: SJF's longest requests wait far longer than FIFO's.

    Starvation only shows when the system is genuinely backlogged, so this
    test drives a heavier load than the shared fixtures.
    """
    import numpy as np

    from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

    heavy = synthesize_trace(SPLITWISE_PROFILE, rps=13.0, duration=120.0,
                             rng=rng_streams.get("trace"), registry=big_registry)
    fifo = _run("slora", heavy, big_registry)
    sjf = _run("slora_sjf", heavy, big_registry)

    def long_request_tail_ttft(system):
        done = [r for r in system.all_requests() if r.finished]
        sizes = np.array([r.output_tokens for r in done])  # SJF keys on output
        cut = np.quantile(sizes, 0.9)
        ttfts = [r.ttft for r, s in zip(done, sizes) if s >= cut]
        return float(np.percentile(ttfts, 99))

    assert long_request_tail_ttft(sjf) > long_request_tail_ttft(fifo)


def test_all_requests_complete_across_presets(tiny_trace, big_registry):
    for preset in ("slora", "slora_sjf", "slora_chunked", "chameleon",
                   "chameleon_prefetch", "chameleon_static"):
        system = _run(preset, tiny_trace, big_registry)
        assert all(r.finished for r in system.all_requests()), preset


def test_squash_rate_is_bounded(loaded_trace, big_registry):
    """§4.3.3: 'at most 5% of requests getting squashed'."""
    system = _run("chameleon", loaded_trace, big_registry)
    assert system.replicas[0].engine.stats.squashes <= 0.05 * len(loaded_trace)


def test_conservation_every_token_accounted(tiny_trace, big_registry):
    system = _run("chameleon", tiny_trace, big_registry)
    done = [r for r in system.all_requests() if r.finished]
    for r in done:
        assert r.tokens_generated == r.output_tokens
        assert len(r.token_times) == r.output_tokens
        assert r.prefill_done_tokens == r.input_tokens


def test_paired_traces_share_arrivals(tiny_trace, big_registry):
    """Trace.fresh() preserves the workload exactly (paired comparison)."""
    a = tiny_trace.fresh()
    b = tiny_trace.fresh()
    assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
    assert [r.adapter_id for r in a] == [r.adapter_id for r in b]


def test_mlq_quota_ledger_balanced_after_run(loaded_trace, big_registry):
    system = _run("chameleon", loaded_trace, big_registry)
    scheduler = system.replicas[0].scheduler
    assert sum(q.borrowed for q in scheduler.queues) == pytest.approx(0.0, abs=1e-6)
    assert scheduler.queue_len() == 0
