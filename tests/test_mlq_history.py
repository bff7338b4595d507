"""The MLQ history's column deques against the per-sample records they replaced.

``MlqScheduler`` keeps its last ``history_size`` enqueues as four column
deques (enqueue time, WRS, token cost, estimated service time).  The oracle
here is the scheduler as it was: one ``_Sample`` record per enqueue in a
single deque, with its history readers verbatim.  It also sizes,
classifies and re-clusters as the scheduler did: adapter sizes and ranks
read through the registry, a linear scan for the first queue whose upper
bound exceeds the WRS, and K chosen then fitted again
(``tests/clustering_oracle.py``).  Hypothesis drives both with the same
enqueue, select and finish sequences, longer than a small ``history_size``
so old samples are evicted, and after every step requires equal sizes and
queue indices, and equal cutoffs, queue counts, quotas and queue contents.
No perfbench workload fills the default 4,096-sample history, so this is
what checks eviction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from clustering_oracle import refresh_fit
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.core.clustering import cluster_cutoffs
from repro.core.mlq import MlqConfig, MlqScheduler, _Queue
from repro.core.quotas import QueueStats, solve_quotas
from repro.core.wrs import WorkloadBounds, compute_wrs
from repro.hardware.gpu import A40_48GB
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B
from repro.serving.admission import AdmitResult
from repro.workload.request import Request, RequestState

BOUNDS = WorkloadBounds(max_input_tokens=4096, max_output_tokens=1024,
                        max_adapter_bytes=LLAMA_7B.adapter_bytes(128))
REGISTRY = AdapterRegistry.build(LLAMA_7B, 20)
COST_MODEL = CostModel(LLAMA_7B, A40_48GB)


@dataclass
class _Sample:
    """Recent-request features driving re-clustering and the quota solver."""

    time: float
    wrs: float
    token_cost: int
    est_duration: float


class SampleRecordMlq(MlqScheduler):
    """The MLQ scheduler with its history kept as one record per enqueue."""

    def __init__(self, config: MlqConfig) -> None:
        super().__init__(LLAMA_7B, REGISTRY, COST_MODEL, BOUNDS, config)
        self._samples: deque[_Sample] = deque(maxlen=config.history_size)

    def _adapter_bytes(self, request: Request):
        if request.adapter_id is None:
            return None
        return self.registry.get(request.adapter_id).size_bytes

    def _request_rank(self, request: Request):
        if request.adapter_id is None:
            return None
        return self.registry.get(request.adapter_id).rank

    def _token_cost(self, request: Request) -> int:
        predicted = request.predicted_output_tokens or request.output_tokens
        adapter_tokens = 0
        adapter_bytes = self._adapter_bytes(request)
        if adapter_bytes is not None:
            adapter_tokens = -(-adapter_bytes // self.model.kv_bytes_per_token)
        return request.input_tokens + predicted + adapter_tokens

    def _scan(self, wrs: float) -> _Queue:
        for queue in self.queues:
            if wrs < queue.upper:
                return queue
        return self.queues[-1]

    def enqueue(self, request: Request, now: float) -> None:
        predicted = request.predicted_output_tokens
        if predicted is None:
            raise RuntimeError("MLQ requires output-length predictions")
        request.wrs = compute_wrs(
            request.input_tokens, predicted, self._adapter_bytes(request),
            self.bounds, self.config.wrs_params,
        )
        request.token_cost = self._token_cost(request)
        est = self.cost_model.estimate_service_time(
            request.input_tokens, predicted, self._request_rank(request)
        )
        self._samples.append(
            _Sample(time=now, wrs=request.wrs, token_cost=request.token_cost, est_duration=est)
        )
        queue = self._scan(request.wrs)
        request.queue_index = self.queues.index(queue)
        queue.items.append(request)
        # The per-adapter queued counts behind `queued_adapter_ids`, which
        # the scheduler's own enqueue keeps.
        if request.adapter_id is not None:
            queued = self._queued_per_adapter
            queued[request.adapter_id] = queued.get(request.adapter_id, 0) + 1
            self._queued_ids = None

    def on_schedule(self, now: float) -> None:
        if self.config.static_k is not None:
            return
        due_first = self._last_refresh is None and len(self._samples) >= self.config.min_samples
        due_periodic = (
            self._last_refresh is not None
            and now - self._last_refresh >= self.config.t_refresh
            and len(self._samples) >= self.config.min_samples
        )
        if due_first or due_periodic:
            self._refresh(now)

    def _init_quotas(self, total_tokens: float, now: float) -> None:
        self._total_tokens = float(total_tokens) * self.config.token_overcommit
        if self._last_refresh is not None and self._samples:
            self._assign_quotas(now)
            return
        share = self._total_tokens / len(self.queues)
        for queue in self.queues:
            queue.quota = share

    def _refresh(self, now: float) -> None:
        self._last_refresh = now
        self._refresh_count += 1
        values = [s.wrs for s in self._samples]
        _k, centroids, _labels = refresh_fit(values, self.config.k_max)
        cutoffs = cluster_cutoffs(centroids)
        uppers = cutoffs + [float("inf")]

        waiting = list(self.queued_requests())
        old_charges = list(self._charges.values())
        self._set_queues(uppers)
        for request in waiting:
            queue = self._scan(request.wrs if request.wrs is not None else 0.0)
            request.queue_index = self.queues.index(queue)
            queue.items.append(request)

        self._charges = {}
        for request, charges in old_charges:
            amount = sum(a for _, a in charges)
            queue = self._scan(request.wrs if request.wrs is not None else 0.0)
            queue.borrowed += amount
            self._charges[request.request_id] = (request, [(queue, amount)])

        if self._total_tokens is not None:
            self._assign_quotas(now)

    def _assign_quotas(self, now: float) -> None:
        assert self._total_tokens is not None
        window = max(1.0, now - self._samples[0].time) if self._samples else 1.0
        stats = []
        for queue in self.queues:
            members = [
                s for s in self._samples
                if self._scan(s.wrs) is queue
            ]
            if members:
                stats.append(
                    QueueStats(
                        max_request_tokens=max(s.token_cost for s in members),
                        expected_duration=sum(s.est_duration for s in members) / len(members),
                        arrival_rate=len(members) / window,
                    )
                )
            else:
                stats.append(QueueStats(1.0, 0.01, 0.0))
        quotas = solve_quotas(stats, self._total_tokens, self.config.slo)
        for queue, quota in zip(self.queues, quotas):
            queue.quota = quota


class _Context:
    """Admits every request whose id is not denied."""

    def __init__(self, now: float, total_tokens: int, denied: frozenset) -> None:
        self.now = now
        self.total_token_capacity = total_tokens
        self.denied = denied

    def try_admit(self, request: Request) -> AdmitResult:
        if request.request_id in self.denied:
            return AdmitResult.NO_MEMORY
        request.state = RequestState.PREFILL
        return AdmitResult.ADMITTED


def _fingerprint(mlq: MlqScheduler) -> tuple:
    return (
        len(mlq.queues),
        mlq.refresh_count,
        [queue.upper for queue in mlq.queues],
        [queue.quota for queue in mlq.queues],
        [queue.borrowed for queue in mlq.queues],
        [[r.request_id for r in queue.items] for queue in mlq.queues],
    )


_steps = st.lists(
    st.tuples(
        st.floats(0.0, 3.0),                          # time to this enqueue
        st.integers(1, 4096),                         # input tokens
        st.integers(1, 1024),                         # output tokens
        st.none() | st.integers(0, 19),               # adapter
        st.integers(1, 1024),                         # predicted output
        st.sampled_from(["none", "select", "finish"]),
    ),
    min_size=9, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(steps=_steps, min_samples=st.integers(1, 8),
       t_refresh=st.floats(0.5, 10.0), total_tokens=st.integers(100, 60_000),
       denied=st.frozensets(st.integers(0, 59), max_size=20))
def test_column_history_matches_sample_records(steps, min_samples, t_refresh,
                                               total_tokens, denied):
    config = MlqConfig(history_size=8, min_samples=min_samples,
                       t_refresh=t_refresh)
    columns = MlqScheduler(LLAMA_7B, REGISTRY, COST_MODEL, BOUNDS, config)
    records = SampleRecordMlq(config)
    pairs: dict[int, tuple[Request, Request]] = {}
    running: list[int] = []  # admitted request ids, in admission order
    now = 0.0
    for rid, (gap, inp, out, adapter, predicted, action) in enumerate(steps):
        now += gap
        pairs[rid] = tuple(
            Request(request_id=rid, arrival_time=now, input_tokens=inp,
                    output_tokens=out, adapter_id=adapter,
                    predicted_output_tokens=predicted)
            for _ in range(2))
        for mlq, request in zip((columns, records), pairs[rid]):
            mlq.enqueue(request, now)
            mlq.on_schedule(now)
        if action == "select":
            for mlq in (columns, records):
                mlq.select(_Context(now, total_tokens, denied))
            running += [i for i, (a, _) in pairs.items()
                        if a.state is RequestState.PREFILL and i not in running]
        elif action == "finish" and running:
            for mlq, request in zip((columns, records), pairs[running.pop(0)]):
                mlq.on_finish(request, now)
                request.state = RequestState.FINISHED
        assert [(a.wrs, a.token_cost, a.state, a.queue_index)
                for a, _ in pairs.values()] == [
            (b.wrs, b.token_cost, b.state, b.queue_index)
            for _, b in pairs.values()]
        assert _fingerprint(columns) == _fingerprint(records)
    history = zip(columns._times, columns._wrs, columns._token_costs,
                  columns._durations)
    assert list(history) == [(s.time, s.wrs, s.token_cost, s.est_duration)
                             for s in records._samples]
    assert len(records._samples) == 8


class _BypassContext:
    """Admits by request id: ``denied`` ids get NO_MEMORY and ``blocked``
    ids NO_ADAPTER_ROOM, the bypass trigger.  Every bypass is predicted to
    pay off.  A ``squash`` round squashes every bypass pair (the bypasser
    goes back to the front of its queue, as the engine's squash puts it
    there) and then admits nothing, so the re-queued bypasser stays
    queued."""

    def __init__(self, mlq: MlqScheduler, now: float, total_tokens: int,
                 denied: frozenset, blocked: frozenset, squash: bool) -> None:
        self.mlq = mlq
        self.now = now
        self.total_token_capacity = total_tokens
        self.denied = denied
        self.blocked = blocked
        self.squash_round = squash
        self.free_bytes = 2**62 if squash else 0

    def try_admit(self, request: Request) -> AdmitResult:
        if self.squash_round or request.request_id in self.denied:
            return AdmitResult.NO_MEMORY
        if request.request_id in self.blocked:
            return AdmitResult.NO_ADAPTER_ROOM
        request.state = RequestState.PREFILL
        return AdmitResult.ADMITTED

    def estimate_earliest_release(self) -> float:
        return float("inf")

    def estimate_service_time(self, request: Request) -> float:
        return 0.0

    def is_adapter_available(self, request: Request) -> bool:
        return False

    def adapter_refcount(self, adapter_id: int) -> int:
        return 1

    def squash(self, request: Request) -> None:
        request.state = RequestState.QUEUED
        self.mlq.requeue_front(request, self.now)


_queue_steps = st.lists(
    st.tuples(
        st.floats(0.0, 3.0),                          # time to this step
        st.integers(1, 4096),                         # input tokens
        st.integers(1, 1024),                         # predicted output
        st.none() | st.integers(0, 5),                # adapter (few: reuse)
        st.sampled_from(["none", "select", "squash", "finish", "drain"]),
    ),
    min_size=5, max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(steps=_queue_steps, min_samples=st.integers(1, 8),
       t_refresh=st.floats(0.5, 10.0),
       total_tokens=st.integers(20_000, 200_000),
       denied=st.frozensets(st.integers(0, 59), max_size=10),
       blocked=st.frozensets(st.integers(0, 59), min_size=5, max_size=20))
def test_queued_adapter_ids_match_the_queues(steps, min_samples, t_refresh,
                                             total_tokens, denied, blocked):
    # The per-adapter counts behind `queued_adapter_ids` against the set
    # comprehension over the queues it replaced, after every enqueue,
    # refresh, admission, bypass, squash, finish and drain; and no set it
    # returned changes afterwards (the adapter manager keeps it as given).
    mlq = MlqScheduler(LLAMA_7B, REGISTRY, COST_MODEL, BOUNDS,
                       MlqConfig(history_size=8, min_samples=min_samples,
                                 t_refresh=t_refresh))
    requests: list[Request] = []
    snapshots: list = []
    now = 0.0
    for rid, (gap, inp, predicted, adapter, action) in enumerate(steps):
        now += gap
        request = Request(request_id=rid, arrival_time=now, input_tokens=inp,
                          output_tokens=predicted, adapter_id=adapter,
                          predicted_output_tokens=predicted)
        requests.append(request)
        mlq.enqueue(request, now)
        mlq.on_schedule(now)
        if action in ("select", "squash"):
            # A squash round re-checks the pairs an earlier round bypassed.
            mlq.select(_BypassContext(mlq, now, total_tokens, denied,
                                      blocked, squash=action == "squash"))
        elif action == "finish":
            for running in requests:
                if running.state is RequestState.PREFILL:
                    mlq.on_finish(running, now)
                    running.state = RequestState.FINISHED
                    break
        elif action == "drain":
            for drained in mlq.drain():
                drained.state = RequestState.FINISHED
        ids = mlq.queued_adapter_ids()
        assert ids == {r.adapter_id for queue in mlq.queues
                       for r in queue.items if r.adapter_id is not None}
        snapshots.append((ids, frozenset(ids)))
    assert all(ids == frozen for ids, frozen in snapshots)
