"""Tests for the Chameleon multi-level-queue scheduler (§4.3)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.core.mlq import MlqConfig, MlqScheduler
from repro.core.wrs import WorkloadBounds, WrsParams
from repro.hardware.gpu import A40_48GB
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B
from repro.serving.admission import AdmitResult
from repro.workload.request import Request, RequestState

BOUNDS = WorkloadBounds(max_input_tokens=4096, max_output_tokens=1024,
                        max_adapter_bytes=LLAMA_7B.adapter_bytes(128))


def make_mlq(config=None, n_adapters=20):
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters)
    cost_model = CostModel(LLAMA_7B, A40_48GB)
    return MlqScheduler(LLAMA_7B, registry, cost_model, BOUNDS,
                        config or MlqConfig())


class FakeContext:
    """Scripted admission context for isolated scheduler testing."""

    def __init__(self, now=0.0, total_tokens=60_000, deny=None, results=None):
        self.now = now
        self.total_token_capacity = total_tokens
        self.deny = deny or {}
        self.admitted = []
        self.squashed = []
        self.free_bytes = 10 ** 12
        self._release_estimate = 100.0
        self._service_estimate = 1.0

    def try_admit(self, request):
        result = self.deny.get(request.request_id, AdmitResult.ADMITTED)
        if result is AdmitResult.ADMITTED:
            self.admitted.append(request)
            request.state = RequestState.PREFILL
        return result

    def is_adapter_available(self, request):
        return True

    def estimate_service_time(self, request):
        return self._service_estimate

    def estimate_earliest_release(self):
        return self._release_estimate

    def adapter_refcount(self, adapter_id):
        return 1

    scheduler = None  # set by tests that exercise squash re-queueing

    def squash(self, request):
        self.squashed.append(request)
        request.state = RequestState.QUEUED
        if self.scheduler is not None:
            self.scheduler.requeue_front(request, self.now)


def _req(rid, inp=100, out=50, adapter_id=0, predicted=None):
    r = Request(request_id=rid, arrival_time=0.0, input_tokens=inp,
                output_tokens=out, adapter_id=adapter_id)
    r.predicted_output_tokens = predicted if predicted is not None else out
    r.enqueue_time = 0.0
    return r


def test_enqueue_computes_wrs_and_token_cost():
    mlq = make_mlq()
    request = _req(0, inp=100, out=50, adapter_id=2)  # rank 32
    mlq.enqueue(request, 0.0)
    assert request.wrs is not None and request.wrs > 0
    adapter_tokens = -(-LLAMA_7B.adapter_bytes(32) // LLAMA_7B.kv_bytes_per_token)
    assert request.token_cost == 100 + 50 + adapter_tokens
    assert mlq.queue_len() == 1


def test_enqueue_requires_prediction():
    mlq = make_mlq()
    request = _req(0)
    request.predicted_output_tokens = None
    with pytest.raises(RuntimeError):
        mlq.enqueue(request, 0.0)


def test_single_queue_before_first_refresh():
    mlq = make_mlq()
    assert len(mlq.queues) == 1


def test_select_admits_within_quota():
    mlq = make_mlq()
    for i in range(5):
        mlq.enqueue(_req(i), 0.0)
    ctx = FakeContext()
    mlq.select(ctx)
    assert len(ctx.admitted) == 5
    assert mlq.queue_len() == 0


def test_quota_charged_and_returned():
    mlq = make_mlq()
    request = _req(0)
    mlq.enqueue(request, 0.0)
    ctx = FakeContext()
    mlq.select(ctx)
    q = mlq.queues[0]
    assert q.borrowed == pytest.approx(request.token_cost)
    mlq.on_finish(request, 1.0)
    assert q.borrowed == 0.0


def test_quota_exhaustion_blocks_further_admissions():
    mlq = make_mlq(MlqConfig(token_overcommit=1.0))
    reqs = [_req(i, inp=1000, out=500) for i in range(10)]
    for r in reqs:
        mlq.enqueue(r, 0.0)
    cost = reqs[0].token_cost  # includes the (shared) adapter's tokens
    ctx = FakeContext(total_tokens=3 * cost)
    mlq.select(ctx)
    # The adapter is charged once, so three base costs plus one adapter
    # charge fit in the pool; the fourth request does not.
    assert len(ctx.admitted) == 3
    assert mlq.queue_len() == 7


def test_liveness_guard_admits_oversized_head():
    """A head larger than the whole quota must still run when the lane idles."""
    mlq = make_mlq()
    big = _req(0, inp=4000, out=1000)
    mlq.enqueue(big, 0.0)
    ctx = FakeContext(total_tokens=100)   # quota far below the request cost
    mlq.select(ctx)
    assert ctx.admitted == [big]


def test_refresh_reclusters_into_multiple_queues():
    config = MlqConfig(min_samples=20)
    mlq = make_mlq(config)
    # Two clearly-separated size groups.
    for i in range(15):
        mlq.enqueue(_req(i, inp=50, out=10, adapter_id=0), 0.0)        # small
    for i in range(15, 30):
        mlq.enqueue(_req(i, inp=3000, out=800, adapter_id=4), 0.0)     # large
    mlq.on_schedule(1.0)
    assert len(mlq.queues) >= 2
    assert mlq.refresh_count == 1
    # Waiting requests got re-binned: smalls ahead of larges.
    small_q, large_q = mlq.queues[0], mlq.queues[-1]
    assert len(small_q.items) == 15
    assert len(large_q.items) == 15
    assert sum(q.quota for q in mlq.queues) == 0  # quotas assigned at select
    ctx = FakeContext()
    mlq.select(ctx)
    assert sum(q.quota for q in mlq.queues) > 0


def test_refresh_waits_for_min_samples():
    config = MlqConfig(min_samples=100)
    mlq = make_mlq(config)
    for i in range(10):
        mlq.enqueue(_req(i), 0.0)
    mlq.on_schedule(1.0)
    assert mlq.refresh_count == 0


def test_periodic_refresh_interval():
    config = MlqConfig(min_samples=5, t_refresh=300.0)
    mlq = make_mlq(config)
    for i in range(10):
        mlq.enqueue(_req(i, inp=100 * (1 + i % 3)), 0.0)
    mlq.on_schedule(1.0)
    assert mlq.refresh_count == 1
    mlq.on_schedule(100.0)             # too soon
    assert mlq.refresh_count == 1
    mlq.on_schedule(302.0)
    assert mlq.refresh_count == 2


def test_smaller_queue_admitted_first():
    config = MlqConfig(min_samples=4)
    mlq = make_mlq(config)
    for i in range(3):
        mlq.enqueue(_req(i, inp=3000, out=800, adapter_id=4), 0.0)   # large first
    for i in range(3, 6):
        mlq.enqueue(_req(i, inp=50, out=10, adapter_id=0), 0.0)      # small later
    mlq.on_schedule(1.0)  # build the two queues
    ctx = FakeContext()
    mlq.select(ctx)
    # The express lane goes first even though the larges arrived earlier.
    assert ctx.admitted[0].request_id in {3, 4, 5}
    # Nobody starves: every request is eventually admitted this round or the
    # next (quota churn), and the small lane is never empty-handed.
    small_admitted = [r for r in ctx.admitted if r.input_tokens == 50]
    assert small_admitted


def test_spare_redistribution_phase2():
    """An empty small queue lends its quota to the backlogged large queue."""
    config = MlqConfig(min_samples=4)
    mlq = make_mlq(config)
    for i in range(3):
        mlq.enqueue(_req(i, inp=50, out=10, adapter_id=0), 0.0)
    for i in range(3, 6):
        mlq.enqueue(_req(i, inp=3000, out=800, adapter_id=4), 0.0)
    mlq.on_schedule(1.0)
    large_cost = mlq.queues[-1].items[0].token_cost
    # Total tokens cover the smalls plus ~2.5 larges: phase 1 alone would
    # stop the large queue at its own (small) quota share.
    ctx = FakeContext(total_tokens=int(3 * 200 + 2.5 * large_cost))
    mlq.select(ctx)
    admitted_large = [r for r in ctx.admitted if r.input_tokens == 3000]
    assert len(admitted_large) >= 2


def test_bypass_on_adapter_room_failure():
    mlq = make_mlq()
    blocked = _req(0, adapter_id=4)           # rank-128 adapter, no room
    runner_up = _req(1, adapter_id=0)
    mlq.enqueue(blocked, 0.0)
    mlq.enqueue(runner_up, 0.0)
    ctx = FakeContext(deny={0: AdmitResult.NO_ADAPTER_ROOM})
    ctx._release_estimate = 100.0   # blocked request would wait a long time
    ctx._service_estimate = 1.0     # bypasser is short
    mlq.select(ctx)
    assert ctx.admitted == [runner_up]
    assert mlq.bypass_count == 1
    assert mlq.queue_len() == 1     # blocked stays at the head


def test_bypass_denied_when_wait_is_short():
    mlq = make_mlq()
    blocked = _req(0, adapter_id=4)
    runner_up = _req(1, adapter_id=0)
    mlq.enqueue(blocked, 0.0)
    mlq.enqueue(runner_up, 0.0)
    ctx = FakeContext(deny={0: AdmitResult.NO_ADAPTER_ROOM})
    ctx._release_estimate = 0.5     # memory frees soon
    ctx._service_estimate = 1.0     # bypasser would outlast the wait
    mlq.select(ctx)
    assert ctx.admitted == []
    assert mlq.bypass_count == 0


def test_bypass_disabled_by_config():
    mlq = make_mlq(MlqConfig(bypass_enabled=False))
    blocked = _req(0, adapter_id=4)
    runner_up = _req(1, adapter_id=0)
    mlq.enqueue(blocked, 0.0)
    mlq.enqueue(runner_up, 0.0)
    ctx = FakeContext(deny={0: AdmitResult.NO_ADAPTER_ROOM})
    mlq.select(ctx)
    assert ctx.admitted == []


def test_squash_when_memory_frees_early():
    mlq = make_mlq()
    blocked = _req(0, adapter_id=4)
    bypasser = _req(1, adapter_id=0)
    mlq.enqueue(blocked, 0.0)
    mlq.enqueue(bypasser, 0.0)
    ctx = FakeContext(deny={0: AdmitResult.NO_ADAPTER_ROOM})
    mlq.select(ctx)
    assert mlq.bypass_count == 1
    # Next round: plenty of free memory -> the bypasser is squashed.
    ctx2 = FakeContext()
    ctx2.scheduler = mlq
    bypasser.kv_reserved_bytes = 10 ** 9
    mlq.select(ctx2)
    assert ctx2.squashed == [bypasser]
    # Both the blocked head and the re-queued bypasser were then admitted.
    assert {r.request_id for r in ctx2.admitted} == {0, 1}


def test_static_config_fixed_queues():
    mlq = make_mlq(MlqConfig(static_k=4))
    assert len(mlq.queues) == 4
    mlq.on_schedule(1000.0)
    assert mlq.refresh_count == 0      # never re-clusters
    for i in range(20):
        mlq.enqueue(_req(i, inp=100 * (1 + i % 4)), 0.0)
    ctx = FakeContext()
    mlq.select(ctx)
    assert len(ctx.admitted) == 20
    # Static quotas: equal split.
    quotas = {q.quota for q in mlq.queues}
    assert len(quotas) == 1


def test_output_only_mode_ignores_input_and_adapter():
    mlq = make_mlq(MlqConfig(wrs_params=WrsParams(mode="output_only")))
    a = _req(0, inp=4000, out=10, adapter_id=4)
    b = _req(1, inp=10, out=10, adapter_id=0)
    mlq.enqueue(a, 0.0)
    mlq.enqueue(b, 0.0)
    assert a.wrs == pytest.approx(b.wrs)


def test_requeue_front_preserves_lane():
    mlq = make_mlq()
    first, second = _req(0), _req(1)
    mlq.enqueue(first, 0.0)
    mlq.enqueue(second, 0.0)
    popped = mlq.queues[0].items.pop(0)
    mlq.requeue_front(popped, 1.0)
    assert mlq.queues[0].items[0] is popped


def test_queued_adapter_ids():
    mlq = make_mlq(MlqConfig(static_k=4))
    for rid, (inp, out, adapter_id) in enumerate(
            [(10, 5, 3), (4000, 1000, 9), (3000, 900, None), (10, 5, 3)]):
        mlq.enqueue(_req(rid, inp=inp, out=out, adapter_id=adapter_id), 0.0)
    assert len({r.queue_index for r in mlq.queued_requests()}) > 1
    assert mlq.queued_adapter_ids() == {3, 9}


def test_mlq_config_is_frozen():
    """Regression: ``MlqScheduler`` defaults to one ``MlqConfig()`` shared
    by every scheduler built without a config, so its knobs must not be
    assignable (the shared-default bug class of ``EngineConfig``)."""
    config = MlqConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.slo = 1.0


def test_charges_survive_refresh():
    """Borrowed tokens are carried to the new queues on re-clustering."""
    config = MlqConfig(min_samples=6)
    mlq = make_mlq(config)
    running = _req(99, inp=3000, out=800, adapter_id=4)
    mlq.enqueue(running, 0.0)
    ctx = FakeContext()
    mlq.select(ctx)
    assert ctx.admitted == [running]
    for i in range(10):
        mlq.enqueue(_req(i, inp=50 + 400 * (i % 2), out=10), 0.0)
    mlq.on_schedule(1.0)
    total_borrowed = sum(q.borrowed for q in mlq.queues)
    assert total_borrowed == pytest.approx(running.token_cost)
    mlq.on_finish(running, 2.0)
    assert sum(q.borrowed for q in mlq.queues) == 0.0


def test_shared_adapter_charged_once():
    """Adapter tokens are charged per adapter, not per request (§4.3's memory
    tokens describe real bytes; adapter weights are shared)."""
    mlq = make_mlq()
    first = _req(0, adapter_id=4)
    second = _req(1, adapter_id=4)   # same adapter, concurrently running
    mlq.enqueue(first, 0.0)
    mlq.enqueue(second, 0.0)
    ctx = FakeContext()
    mlq.select(ctx)
    assert len(ctx.admitted) == 2
    adapter_tokens = -(-LLAMA_7B.adapter_bytes(128) // LLAMA_7B.kv_bytes_per_token)
    base = first.input_tokens + first.predicted_output_tokens
    total_borrowed = sum(q.borrowed for q in mlq.queues)
    # One adapter charge, two base charges.
    assert total_borrowed == pytest.approx(2 * base + adapter_tokens)
    # The adapter charge is returned with the *last* holder.
    mlq.on_finish(first, 1.0)
    mlq.on_finish(second, 1.0)
    assert sum(q.borrowed for q in mlq.queues) == pytest.approx(0.0)
    assert mlq._adapter_active.get(4, 0) == 0


def test_squash_returns_borrowed_tokens():
    """A squashed request's quota must flow back (no token leak)."""
    mlq = make_mlq()
    request = _req(0, adapter_id=2)
    mlq.enqueue(request, 0.0)
    ctx = FakeContext()
    mlq.select(ctx)
    assert sum(q.borrowed for q in mlq.queues) > 0
    # The engine squashes the request: requeue_front must release charges.
    mlq.requeue_front(request, 1.0)
    assert sum(q.borrowed for q in mlq.queues) == pytest.approx(0.0)
    assert mlq._adapter_active.get(2, 0) == 0
    # Re-admission charges again, exactly once.
    ctx2 = FakeContext()
    request.state = RequestState.QUEUED
    mlq.select(ctx2)
    assert ctx2.admitted == [request]
    mlq.on_finish(request, 2.0)
    assert sum(q.borrowed for q in mlq.queues) == pytest.approx(0.0)


def _scan(queues, wrs):
    """The classification as a linear scan: the first queue whose upper
    bound exceeds ``wrs``, else the last queue."""
    for index, queue in enumerate(queues):
        if wrs < queue.upper:
            return index
    return len(queues) - 1


@given(st.lists(st.floats(0.0, 1.0), max_size=4),
       st.lists(st.floats(-0.5, 1.5), max_size=10),
       st.sampled_from([None, 2, 3, 4]))
@settings(max_examples=200, deadline=None)
def test_classify_matches_the_linear_scan(cutoffs, extra, static_k):
    """Bisecting the cutoffs picks the queue the scan does, for a WRS on a
    cutoff too, with repeated cutoffs, and for the static configuration."""
    mlq = make_mlq(MlqConfig(static_k=static_k))
    if static_k is None:
        mlq._set_queues(sorted(cutoffs) + [float("inf")])
    uppers = [queue.upper for queue in mlq.queues]
    for wrs in uppers + extra + [float("inf"), -float("inf")]:
        assert mlq._classify(wrs) == _scan(mlq.queues, wrs)
