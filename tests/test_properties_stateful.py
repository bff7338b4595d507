"""Property-based tests over the stateful components: the adapter managers'
accounting and idle set under random acquire/release/prefetch/eviction
sequences, the MLQ's quota ledger
under random scheduling episodes, the cost model's monotonicity, and the
data-parallel dispatcher's invariants under random arrival/finish
interleavings (for every dispatch policy and SLO admission mode)."""

import numpy as np
import pytest
from fake_engine import FakeEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.core.cache import ChameleonCacheManager
from repro.core.mlq import MlqConfig, MlqScheduler
from repro.core.wrs import WorkloadBounds
from repro.hardware.cluster import DataParallelCluster
from repro.hardware.gpu import A40_48GB, GpuDevice
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B
from repro.serving.adapter_manager import AdapterState, SloraAdapterManager
from repro.serving.admission import AdmitResult, SloPolicy
from repro.sim.simulator import Simulator
from repro.workload.request import Request, RequestState


# --------------------------------------------------------------------- #
# Adapter managers under random operation sequences
# --------------------------------------------------------------------- #
@st.composite
def manager_ops(draw):
    """A sequence of (op, adapter_id) with op in acquire/release/run/room/
    prefetch/queue."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        ops.append((
            draw(st.sampled_from(["acquire", "release", "run", "make_room",
                                  "prefetch", "queue"])),
            draw(st.integers(min_value=0, max_value=9)),
        ))
    return ops


def _idle_scan(mgr):
    """The eviction candidates by a scan of every entry."""
    return {aid for aid, entry in mgr.entries.items()
            if entry.state is AdapterState.RESIDENT and entry.refcount == 0}


@given(manager_ops(), st.sampled_from(["slora", "chameleon"]))
@settings(max_examples=40, deadline=None)
def test_manager_accounting_invariants(ops, kind):
    sim = Simulator()
    gpu = GpuDevice(A40_48GB)
    link = PcieLink(sim, PcieSpec())
    registry = AdapterRegistry.build(LLAMA_7B, 10)
    cls = SloraAdapterManager if kind == "slora" else ChameleonCacheManager
    mgr = cls(sim, gpu, link, registry)
    pins: dict[int, int] = {}
    for op, aid in ops:
        if op == "acquire":
            mgr.acquire(aid)
            pins[aid] = pins.get(aid, 0) + 1
        elif op == "release":
            if pins.get(aid, 0) > 0:
                mgr.release(aid)
                pins[aid] -= 1
        elif op == "run":
            sim.run()
        elif op == "make_room":
            # Ask for more than is free, so idle adapters are evicted; an
            # odd id also shields itself.
            mgr.make_room(gpu.free_bytes + (aid + 1) * 32 * 1024 * 1024,
                          exclude={aid} if aid % 2 else None)
        elif op == "prefetch":
            mgr.prefetch(aid)
        else:
            # Queued requests need the ids below ``aid`` (S-LoRA keeps
            # those resident when they go idle).
            mgr.set_queued_needed(set(range(aid)))
        # Invariants hold after every operation:
        assert mgr._idle == _idle_scan(mgr)
        assert gpu.free_bytes >= 0
        resident_bytes = sum(
            e.size_bytes for e in mgr.entries.values()
            if e.state is not AdapterState.MISSING
        )
        assert resident_bytes == gpu.used("adapter") + gpu.used("adapter_cache")
        for adapter_id, count in pins.items():
            assert mgr.refcount(adapter_id) == count
    sim.run()
    assert mgr._idle == _idle_scan(mgr)
    # Pinned adapters are resident after the heap drains; none were evicted.
    for adapter_id, count in pins.items():
        if count > 0:
            assert mgr.is_resident(adapter_id)


# --------------------------------------------------------------------- #
# MLQ quota ledger under random episodes
# --------------------------------------------------------------------- #
class _RecordingContext:
    def __init__(self, admit_probability, rng):
        self.now = 0.0
        self.total_token_capacity = 50_000
        self.free_bytes = 10 ** 12
        self.admitted = []
        self._p = admit_probability
        self._rng = rng

    def try_admit(self, request):
        if self._rng.random() < self._p:
            self.admitted.append(request)
            request.state = RequestState.PREFILL
            return AdmitResult.ADMITTED
        return AdmitResult.NO_MEMORY

    def is_adapter_available(self, request):
        return True

    def estimate_service_time(self, request):
        return 1.0

    def estimate_earliest_release(self):
        return 10.0

    def adapter_refcount(self, adapter_id):
        return 1

    def squash(self, request):
        request.state = RequestState.QUEUED


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=2000),
                          st.integers(min_value=1, max_value=500),
                          st.one_of(st.none(), st.integers(min_value=0, max_value=9))),
                min_size=1, max_size=30),
       st.floats(min_value=0.2, max_value=1.0),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_mlq_ledger_conserved(specs, admit_probability, seed):
    registry = AdapterRegistry.build(LLAMA_7B, 10)
    bounds = WorkloadBounds(4096, 1024, registry.max_size_bytes)
    mlq = MlqScheduler(LLAMA_7B, registry, CostModel(LLAMA_7B, A40_48GB), bounds,
                       MlqConfig(min_samples=5))
    rng = np.random.default_rng(seed)
    requests = []
    for i, (inp, out, aid) in enumerate(specs):
        r = Request(request_id=i, arrival_time=0.0, input_tokens=inp,
                    output_tokens=out, adapter_id=aid)
        r.predicted_output_tokens = out
        r.enqueue_time = 0.0
        r.state = RequestState.QUEUED
        requests.append(r)
        mlq.enqueue(r, 0.0)
    ctx = _RecordingContext(admit_probability, rng)
    for round_no in range(5):
        mlq.on_schedule(float(round_no))
        mlq.select(ctx)
        # Borrowed never negative, never wildly above the (overcommitted) pool.
        for q in mlq.queues:
            assert q.borrowed >= 0.0
    # Finish everything that was admitted; ledger must drain to zero.
    for request in ctx.admitted:
        mlq.on_finish(request, 10.0)
    assert sum(q.borrowed for q in mlq.queues) == pytest.approx(0.0, abs=1e-6)
    assert all(v >= 0 for v in mlq._adapter_active.values())
    assert sum(mlq._adapter_active.values()) == 0
    # Whatever was not admitted is still queued exactly once.
    assert mlq.queue_len() == len(requests) - len(set(map(id, ctx.admitted)))


# --------------------------------------------------------------------- #
# Data-parallel dispatch under random arrival/finish interleavings
# --------------------------------------------------------------------- #
class _StepSim:
    def __init__(self):
        self.now = 0.0


def _interleavings():
    """Random op sequences: arrivals (with an adapter draw) and finishes."""
    return st.lists(
        st.tuples(st.sampled_from(["arrive", "finish"]),
                  st.integers(min_value=0, max_value=7)),
        min_size=1, max_size=60,
    )


def _run_interleaving(policy, ops, n_engines, capacity, slo_policy=None):
    sim = _StepSim()
    submit_log: list = []
    # Each fake asserts the backpressure contract itself: a dispatcher with
    # backpressure on never submits to it while it is saturated.  Even
    # adapter ids are resident everywhere, so affinity takes both branches.
    engines = [FakeEngine(max_batch_size=capacity, sim=sim, resident={0, 2},
                          submit_log=submit_log) for _ in range(n_engines)]
    cluster = DataParallelCluster(
        engines, policy=policy, slo_policy=slo_policy,
        rng=np.random.default_rng(7))
    arrived: list = []
    queued_order: list = []
    for kind, draw in ops:
        if kind == "arrive":
            request = Request(
                request_id=len(arrived), arrival_time=sim.now,
                input_tokens=10, output_tokens=2,
                adapter_id=draw if draw < 4 else None)
            arrived.append(request)
            before = cluster.queue_len()
            index = cluster.dispatch(request)
            if index is None and cluster.queue_len() > before \
                    and not request.deprioritized:
                queued_order.append(request)
        else:
            busy = [e for e in engines if e.in_flight]
            if busy:
                busy[draw % len(busy)].finish_one()
        sim.now += 0.25

        # Conservation: every arrival is in exactly one place — submitted to
        # exactly one engine, still pending at the cluster, or shed.
        in_engines = [r.request_id for e in engines for r in e.submitted]
        pending = [r.request_id for r in cluster.pending_requests()]
        shed = [r.request_id for r in cluster.shed_requests()]
        assert len(in_engines) == len(set(in_engines))
        assert sorted(in_engines + pending + shed) == \
            [r.request_id for r in arrived]
        # Stats mirror the same identity.
        assert cluster.stats.dispatched + cluster.queue_len() \
            + cluster.stats.shed == len(arrived)
        # No engine is ever pushed past its capacity.
        assert all(e.in_flight_count() <= e.config.max_batch_size
                   for e in engines)
    return submit_log, queued_order


@pytest.mark.parametrize("policy", DataParallelCluster.POLICIES)
@given(ops=_interleavings(),
       n_engines=st.integers(min_value=2, max_value=4),
       capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_dispatch_interleavings_conserve_requests(policy, ops, n_engines, capacity):
    submit_log, queued_order = _run_interleaving(policy, ops, n_engines, capacity)
    # FIFO: requests that went through the global queue are submitted in
    # queue-entry order — nothing overtakes the queued head.
    queued_ids = {r.request_id for r in queued_order}
    released = [r.request_id for r in submit_log if r.request_id in queued_ids]
    expected = [r.request_id for r in queued_order if r.request_id in set(released)]
    assert released == expected


@pytest.mark.parametrize("mode", SloPolicy.MODES)
@given(ops=_interleavings(),
       policy=st.sampled_from(DataParallelCluster.POLICIES),
       deadline=st.floats(min_value=0.05, max_value=2.0),
       capacity=st.integers(min_value=1, max_value=2))
@settings(max_examples=25, deadline=None)
def test_slo_interleavings_conserve_requests(mode, ops, policy, deadline, capacity):
    slo_policy = SloPolicy(ttft_deadline=deadline, mode=mode)
    submit_log, queued_order = _run_interleaving(
        policy, ops, n_engines=3, capacity=capacity, slo_policy=slo_policy)
    # Deprioritized arrivals never overtake the FIFO lane: among submitted
    # requests, a FIFO-lane request enqueued before a low-lane request that
    # was parked at that time is released first (checked per-step above via
    # conservation; here we check shed requests never ran at all).
    assert all(not r.shed for r in submit_log)
    # The FIFO lane keeps its no-overtake guarantee under SLO admission:
    # FIFO-lane requests are released in queue-entry order (deprioritized
    # arrivals are excluded from queued_order — they may be overtaken).
    queued_ids = {r.request_id for r in queued_order}
    released = [r.request_id for r in submit_log if r.request_id in queued_ids]
    expected = [r.request_id for r in queued_order if r.request_id in set(released)]
    assert released == expected


# --------------------------------------------------------------------- #
# Cost-model monotonicity
# --------------------------------------------------------------------- #
@given(st.integers(min_value=1, max_value=4000),
       st.integers(min_value=1, max_value=3999),
       st.sampled_from([8, 16, 32, 64, 128]))
@settings(max_examples=60)
def test_prefill_monotone_property(n, delta, rank):
    cm = CostModel(LLAMA_7B, A40_48GB)
    assert cm.prefill_time(n + delta, rank) > cm.prefill_time(n, rank)


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=60)
def test_decode_step_monotone_property(n_requests, ctx_tokens, extra):
    cm = CostModel(LLAMA_7B, A40_48GB)
    base = cm.decode_step_time(n_requests, ctx_tokens)
    assert cm.decode_step_time(n_requests + extra, ctx_tokens) > base
    assert cm.decode_step_time(n_requests, ctx_tokens + extra) > base


@given(st.integers(min_value=1, max_value=2000),
       st.integers(min_value=2, max_value=400),
       st.sampled_from([None, 8, 32, 128]))
@settings(max_examples=40)
def test_estimate_tracks_exact_isolated(inp, out, rank):
    cm = CostModel(LLAMA_7B, A40_48GB)
    exact = cm.isolated_request_time(inp, out, rank)
    estimate = cm.estimate_service_time(inp, out, rank)
    assert estimate == pytest.approx(exact, rel=0.08)
