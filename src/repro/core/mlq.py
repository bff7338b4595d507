"""The Chameleon multi-level-queue scheduler (§4.3).

Requests are sized by their Weighted Request Size, binned into K queues whose
cutoffs come from K-means clustering of the recent WRS distribution, and
admitted by Algorithm 1: every iteration each queue admits up to its token
quota (small-request queues first — the express lane), then the spare
capacity of empty queues is redistributed to queues that still have waiting
requests.  Quotas come from the §4.3.5 M/M/1 solver and everything is
re-derived every ``T_refresh`` (5 minutes in the paper).

Also implemented: the §4.3.3 *opportunistic bypass* — when the head of a
queue cannot be admitted because its adapter does not fit even after evicting
every idle cached adapter, a younger request from the same queue whose
adapter is available may jump ahead, provided its predicted execution is
shorter than the predicted wait; if memory frees up early, the bypasser is
*squashed* (rolled back and re-queued) so the bypassed request is not starved.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.adapters.registry import AdapterRegistry
from repro.core.clustering import choose_k_elbow, cluster_cutoffs
from repro.core.quotas import QueueStats, solve_quotas
from repro.core.wrs import WorkloadBounds, WrsParams, compute_wrs, max_possible_wrs
from repro.llm.costmodel import CostModel
from repro.llm.model import ModelSpec
from repro.serving.admission import AdmissionContext, AdmitResult
from repro.serving.schedulers import Scheduler
from repro.workload.request import Request, RequestState


@dataclass(frozen=True)
class MlqConfig:
    """Knobs of the MLQ scheduler; defaults follow the paper.

    Frozen, so the one default instance ``MlqScheduler`` falls back to can
    be shared by every scheduler without aliasing mutable knobs.
    """

    k_max: int = 4
    t_refresh: float = 300.0
    min_samples: int = 50
    history_size: int = 4096
    wrs_params: WrsParams = field(default_factory=WrsParams)
    bypass_enabled: bool = True
    #: SLO used by the quota solver (seconds).
    slo: float = 5.0
    #: Factor applied to the memory-derived token pool when sizing quotas.
    #: Token charges use *predicted* output lengths, whose errors are biased
    #: upward (log-normal misses), so literal 1.0 provisioning under-admits
    #: relative to what memory actually allows and inflicts phantom queueing
    #: (worst for large, hard-to-predict requests).  Actual memory admission
    #: is enforced separately by the engine, so the overcommit can never
    #: cause an OOM — quotas retain their §4.3 role of *relative* shares and
    #: starvation protection.
    token_overcommit: float = 2.0
    #: When set, use a static configuration (Figure 22's "Static"): this many
    #: queues with equal WRS ranges and equal quotas, never refreshed.
    static_k: Optional[int] = None


@dataclass
class _Queue:
    """One scheduling lane."""

    upper: float                      # exclusive WRS upper bound (inf for last)
    quota: float = 0.0                # assigned tokens
    borrowed: float = 0.0             # tokens currently loaned to running requests
    items: list = field(default_factory=list)

    @property
    def available(self) -> float:
        return max(0.0, self.quota - self.borrowed)


class MlqScheduler(Scheduler):
    """See module docstring."""

    needs_predictions = True

    def __init__(
        self,
        model: ModelSpec,
        registry: AdapterRegistry,
        cost_model: CostModel,
        bounds: WorkloadBounds,
        config: MlqConfig = MlqConfig(),
    ) -> None:
        self.model = model
        self.registry = registry
        self.cost_model = cost_model
        self.bounds = bounds
        self.config = config
        #: Per-adapter constants by adapter id (the registry is read-only and
        #: its ids are dense ``0..n-1``): size in bytes, LoRA rank, and size
        #: in scheduling tokens (bytes over KV bytes per token, rounded up).
        kv_bytes = model.kv_bytes_per_token
        self._kv_bytes_per_token = kv_bytes
        self._adapter_size = [adapter.size_bytes for adapter in registry]
        self._adapter_rank = [adapter.rank for adapter in registry]
        self._adapter_tokens = [-(-size // kv_bytes)
                                for size in self._adapter_size]

        #: Recent-request features driving re-clustering and the quota
        #: solver, one column each: enqueue time, WRS, token cost and
        #: estimated service time of the last ``history_size`` enqueues.
        size = config.history_size
        self._times: deque[float] = deque(maxlen=size)
        self._wrs: deque[float] = deque(maxlen=size)
        self._token_costs: deque[int] = deque(maxlen=size)
        self._durations: deque[float] = deque(maxlen=size)
        self._charges: dict[int, tuple[Request, list]] = {}
        #: Running requests per adapter — an adapter's tokens are charged
        #: once per *adapter*, not once per request (adapters are shared).
        self._adapter_active: dict[int, int] = {}
        self._bypass_pairs: list[tuple[Request, Request]] = []
        self._total_tokens: Optional[float] = None
        self._last_refresh: Optional[float] = None
        self._refresh_count = 0
        self.bypass_count = 0

        if config.static_k is not None:
            step = max_possible_wrs(config.wrs_params) / config.static_k
            uppers = [step * (i + 1) for i in range(config.static_k - 1)] + [float("inf")]
        else:
            uppers = [float("inf")]
        self._set_queues(uppers)

    def _set_queues(self, uppers: list[float]) -> None:
        """Replace the queues with empty ones bounded by ``uppers``
        (ascending, the last one ``inf``)."""
        self.queues = [_Queue(upper=u) for u in uppers]
        self._cutoffs = uppers[:-1]

    # ------------------------------------------------------------------ #
    # Sizing and classification
    # ------------------------------------------------------------------ #
    def _effective_cost(self, request: Request) -> int:
        """Tokens actually charged at admission: the adapter's share is only
        charged when no running request already holds that adapter (adapter
        weights are shared; charging them per request would double-count)."""
        predicted = request.predicted_output_tokens or request.output_tokens
        cost = request.input_tokens + predicted
        aid = request.adapter_id
        if aid is not None and self._adapter_active.get(aid, 0) == 0:
            cost += self._adapter_tokens[aid]
        return cost

    def _classify(self, wrs: float) -> int:
        """Index of the queue a WRS value falls into (0 = smallest): the
        first queue whose upper bound exceeds it, else the last queue."""
        return bisect_right(self._cutoffs, wrs)

    # ------------------------------------------------------------------ #
    # Scheduler interface
    # ------------------------------------------------------------------ #
    def enqueue(self, request: Request, now: float) -> None:
        predicted = request.predicted_output_tokens
        if predicted is None:
            raise RuntimeError("MLQ requires output-length predictions")
        aid = request.adapter_id
        if aid is None:
            adapter_bytes = rank = None
            adapter_tokens = 0
        else:
            adapter_bytes = self._adapter_size[aid]
            rank = self._adapter_rank[aid]
            adapter_tokens = self._adapter_tokens[aid]
        request.wrs = compute_wrs(
            request.input_tokens, predicted, adapter_bytes,
            self.bounds, self.config.wrs_params,
        )
        # §4.3's footprint in scheduling tokens: input + output tokens plus
        # the adapter's memory translated into tokens.
        request.token_cost = (request.input_tokens
                              + (predicted or request.output_tokens)
                              + adapter_tokens)
        est = self.cost_model.estimate_service_time(
            request.input_tokens, predicted, rank)
        self._times.append(now)
        self._wrs.append(request.wrs)
        self._token_costs.append(request.token_cost)
        self._durations.append(est)
        index = self._classify(request.wrs)
        request.queue_index = index
        self.queues[index].items.append(request)

    def requeue_front(self, request: Request, now: float) -> None:
        # A squashed request returns its borrowed tokens (it will be charged
        # again on re-admission) and releases its adapter-share charge.
        self._release_charges(request)
        index = self._classify(request.wrs if request.wrs is not None else 0.0)
        request.queue_index = index
        self.queues[index].items.insert(0, request)

    def queued_requests(self) -> Iterable[Request]:
        return list(itertools.chain.from_iterable(q.items for q in self.queues))

    def queued_adapter_ids(self) -> set[int]:
        return {request.adapter_id for queue in self.queues
                for request in queue.items if request.adapter_id is not None}

    def drain(self) -> list[Request]:
        drained = list(self.queued_requests())
        for queue in self.queues:
            queue.items.clear()
        return drained

    def queue_len(self) -> int:
        return sum(len(q.items) for q in self.queues)

    def on_finish(self, request: Request, now: float) -> None:
        self._release_charges(request)

    def _release_charges(self, request: Request) -> None:
        entry = self._charges.pop(request.request_id, None)
        if entry is None:
            return
        for queue, amount in entry[1]:
            queue.borrowed = max(0.0, queue.borrowed - amount)
        aid = request.adapter_id
        if aid is not None and self._adapter_active.get(aid, 0) > 0:
            self._adapter_active[aid] -= 1

    def on_schedule(self, now: float) -> None:
        if self.config.static_k is not None:
            return
        due_first = self._last_refresh is None and len(self._wrs) >= self.config.min_samples
        due_periodic = (
            self._last_refresh is not None
            and now - self._last_refresh >= self.config.t_refresh
            and len(self._wrs) >= self.config.min_samples
        )
        if due_first or due_periodic:
            self._refresh(now)

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def select(self, ctx: AdmissionContext) -> None:
        if self._total_tokens is None:
            self._init_quotas(ctx.total_token_capacity, ctx.now)
        if not self._bypass_pairs:
            for queue in self.queues:
                if queue.items:
                    break
            else:
                return  # both phases would admit nothing and change nothing
        self._check_squash(ctx)

        # Phase 1: every queue admits up to its own available quota;
        # queues left empty contribute their unused budget to the spare pool.
        lenders: list[list] = []  # [queue, spare_amount]
        for queue in self.queues:
            budget = queue.available
            # Liveness guard: an idle queue must always be able to admit its
            # head, even if the head is larger than the assigned quota
            # (otherwise a quota undershoot would block the lane forever).
            if queue.items and queue.borrowed == 0:
                budget = max(budget, float(self._effective_cost(queue.items[0])))
            consumed = self._put_batch(queue, budget, ctx, lenders=None, home=queue)
            if not queue.items and budget - consumed > 0:
                lenders.append([queue, budget - consumed])

        # Phase 2: redistribute spare resources, smallest queue first.
        if not lenders:
            return
        for queue in self.queues:
            spare = sum(amount for _, amount in lenders)
            if spare <= 0:
                break
            if not queue.items:
                continue
            self._put_batch(queue, spare, ctx, lenders=lenders, home=queue)

    def _put_batch(
        self,
        queue: _Queue,
        budget: float,
        ctx: AdmissionContext,
        lenders: Optional[list],
        home: _Queue,
    ) -> float:
        """Admit requests from ``queue`` within ``budget`` tokens.

        Phase 1 (``lenders is None``) charges the queue itself; phase 2 draws
        the tokens from the lender queues' spare budgets.  Mirrors the paper's
        ``put_batch``: scan in order, stop at the first request that does not
        fit — except for the opportunistic-bypass case.
        """
        consumed = 0.0
        index = 0
        while index < len(queue.items):
            request = queue.items[index]
            cost = self._effective_cost(request)
            if cost > budget - consumed:
                break
            result = ctx.try_admit(request)
            if result is AdmitResult.ADMITTED:
                queue.items.pop(index)
                self._charge(request, cost, lenders, home)
                consumed += cost
                continue
            if result is AdmitResult.NO_ADAPTER_ROOM and self.config.bypass_enabled:
                consumed += self._attempt_bypass(
                    queue, index, budget - consumed, ctx, lenders, home
                )
            break
        return consumed

    def _charge(self, request: Request, cost: float, lenders: Optional[list], home: _Queue) -> None:
        if request.adapter_id is not None:
            self._adapter_active[request.adapter_id] = (
                self._adapter_active.get(request.adapter_id, 0) + 1)
        charges: list = []
        if lenders is None:
            home.borrowed += cost
            charges.append((home, cost))
        else:
            remaining = cost
            for lender in lenders:
                if remaining <= 0:
                    break
                take = min(lender[1], remaining)
                if take <= 0:
                    continue
                lender[0].borrowed += take
                lender[1] -= take
                charges.append((lender[0], take))
                remaining -= take
            if remaining > 0:
                # Spare pool exhausted mid-request; charge the home queue.
                home.borrowed += remaining
                charges.append((home, remaining))
        self._charges[request.request_id] = (request, charges)

    # ------------------------------------------------------------------ #
    # Opportunistic bypass + squash (§4.3.3)
    # ------------------------------------------------------------------ #
    def _attempt_bypass(
        self,
        queue: _Queue,
        blocked_index: int,
        budget_left: float,
        ctx: AdmissionContext,
        lenders: Optional[list],
        home: _Queue,
    ) -> float:
        blocked = queue.items[blocked_index]
        predicted_wait = ctx.estimate_earliest_release()
        for j in range(blocked_index + 1, len(queue.items)):
            candidate = queue.items[j]
            cost = self._effective_cost(candidate)
            if cost > budget_left:
                continue
            # Bypass is only allowed when the wait for the blocked request's
            # memory is predicted to outlast the bypasser's whole execution.
            if ctx.estimate_service_time(candidate) >= predicted_wait:
                continue
            if ctx.try_admit(candidate) is AdmitResult.ADMITTED:
                queue.items.pop(j)
                self._charge(candidate, cost, lenders, home)
                self._bypass_pairs.append((blocked, candidate))
                self.bypass_count += 1
                return float(cost)
        return 0.0

    def _check_squash(self, ctx: AdmissionContext) -> None:
        """Roll back bypassers whose bypass turned out unnecessary."""
        waiting_states = (RequestState.QUEUED, RequestState.CREATED)
        still_active: list[tuple[Request, Request]] = []
        for blocked, bypasser in self._bypass_pairs:
            if blocked.state not in waiting_states or bypasser.finished:
                continue
            if bypasser.state is RequestState.QUEUED:
                continue  # already squashed or re-queued some other way
            predicted = blocked.predicted_output_tokens or blocked.output_tokens
            need = (blocked.input_tokens + predicted) * self._kv_bytes_per_token
            if blocked.adapter_id is not None and not ctx.is_adapter_available(blocked):
                need += self._adapter_size[blocked.adapter_id]
            freed = bypasser.kv_reserved_bytes
            if (
                bypasser.adapter_id is not None
                and ctx.adapter_refcount(bypasser.adapter_id) == 1
            ):
                freed += self._adapter_size[bypasser.adapter_id]
            if ctx.free_bytes + freed >= need:
                ctx.squash(bypasser)
            else:
                still_active.append((blocked, bypasser))
        self._bypass_pairs = still_active

    # ------------------------------------------------------------------ #
    # Dynamic reconfiguration (§4.3.4 / §4.3.5)
    # ------------------------------------------------------------------ #
    def _init_quotas(self, total_tokens: float, now: float) -> None:
        self._total_tokens = float(total_tokens) * self.config.token_overcommit
        if self._last_refresh is not None and self._wrs:
            # A refresh already ran before capacity was known: solve properly.
            self._assign_quotas(now)
            return
        share = self._total_tokens / len(self.queues)
        for queue in self.queues:
            queue.quota = share

    def _refresh(self, now: float) -> None:
        """Re-derive K, the cutoffs and the quotas from recent samples."""
        self._last_refresh = now
        self._refresh_count += 1
        _k, centroids, _labels = choose_k_elbow(list(self._wrs), self.config.k_max)
        uppers = cluster_cutoffs(centroids) + [float("inf")]

        waiting = list(self.queued_requests())
        old_charges = list(self._charges.values())
        self._set_queues(uppers)
        for request in waiting:
            index = self._classify(request.wrs if request.wrs is not None else 0.0)
            request.queue_index = index
            self.queues[index].items.append(request)

        # Carry running requests' borrowed tokens over to the new queues.
        self._charges = {}
        for request, charges in old_charges:
            amount = sum(a for _, a in charges)
            queue = self.queues[self._classify(
                request.wrs if request.wrs is not None else 0.0)]
            queue.borrowed += amount
            self._charges[request.request_id] = (request, [(queue, amount)])

        if self._total_tokens is not None:
            self._assign_quotas(now)

    def _assign_quotas(self, now: float) -> None:
        assert self._total_tokens is not None
        window = max(1.0, now - self._times[0]) if self._times else 1.0
        # Each sample's (token cost, duration), grouped by queue in history
        # order, so every sum adds the same floats in the same order.
        members: list[list[tuple[int, float]]] = [[] for _ in self.queues]
        for wrs, cost, duration in zip(self._wrs, self._token_costs, self._durations):
            members[self._classify(wrs)].append((cost, duration))
        stats = []
        for group in members:
            if group:
                stats.append(
                    QueueStats(
                        max_request_tokens=max(cost for cost, _ in group),
                        expected_duration=sum(d for _, d in group) / len(group),
                        arrival_rate=len(group) / window,
                    )
                )
            else:
                stats.append(QueueStats(1.0, 0.01, 0.0))
        quotas = solve_quotas(stats, self._total_tokens, self.config.slo)
        for queue, quota in zip(self.queues, quotas):
            queue.quota = quota

    # ------------------------------------------------------------------ #
    @property
    def refresh_count(self) -> int:
        return self._refresh_count
