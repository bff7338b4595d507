"""Multi-GPU organizations: tensor parallelism and data parallelism.

Tensor parallelism (TP) is modelled as one logical device whose memory is the
sum of the member GPUs and whose compute scales by the TP degree times a
sub-linear efficiency factor.  Adapter loads become sharded transfers with a
per-shard synchronization overhead, which is what makes loading a *bigger*
fraction of TTFT as TP grows (paper Figure 5).

Data parallelism (DP) is a set of independent engines behind a two-level
scheduler (§4.4): a global dispatcher routes each request to one engine, and
each engine keeps its own local scheduler and adapter cache (the paper
replicates the cache across DP engines).  The dispatcher owns a global
admission queue with backpressure: when every replica's batch is saturated,
arrivals wait at the cluster level (with per-request queue-delay accounting)
and replicas pull from the queue on finish events instead of having work
force-fed into an overloaded local queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.hardware.dispatch_index import MinLoadHeap
from repro.hardware.gpu import GpuDevice, GpuSpec
from repro.hardware.pcie import PcieLink, Transfer


#: Parallel efficiency of tensor-parallel compute (all-reduce overheads make
#: TP-N less than N-times faster; 0.82 matches common Megatron-style scaling).
TP_COMPUTE_EFFICIENCY = 0.82

#: Extra per-shard synchronization cost of a TP-sharded adapter load, seconds.
#: Calibrated against paper Figure 5 (loading = 68% of TTFT for rank 32 at
#: TP4 on Llama-70B): partitioning, per-GPU dispatch and synchronization
#: dominate the raw copy for sharded loads.
TP_SHARD_SYNC_OVERHEAD = 30e-3


class TensorParallelGroup(GpuDevice):
    """N GPUs executing one model replica with tensor parallelism.

    The group behaves like one big :class:`GpuDevice` (weights, KV and
    adapters are all sharded evenly, so aggregate byte accounting is exact)
    plus TP-aware compute scaling and sharded adapter transfers.
    """

    def __init__(self, spec: GpuSpec, tp_degree: int,
                 sync_overhead: float = TP_SHARD_SYNC_OVERHEAD,
                 compute_efficiency: float = TP_COMPUTE_EFFICIENCY) -> None:
        if tp_degree < 1:
            raise ValueError(f"tp_degree must be >= 1, got {tp_degree}")
        super().__init__(spec, memory_bytes=spec.memory_bytes * tp_degree)
        self.tp_degree = tp_degree
        self.sync_overhead = sync_overhead
        self.compute_efficiency = compute_efficiency

    @property
    def compute_speedup(self) -> float:
        """Effective compute speed relative to a single GPU."""
        if self.tp_degree == 1:
            return 1.0
        return self.tp_degree * self.compute_efficiency

    def submit_adapter_load(
        self,
        link: PcieLink,
        nbytes: int,
        callback: Optional[Callable[[Transfer], None]] = None,
        tag: str = "",
    ) -> Transfer:
        """Load an adapter, sharded across the group's GPUs."""
        if self.tp_degree == 1:
            return link.submit(nbytes, callback=callback, tag=tag)
        return link.submit_sharded(
            nbytes, shards=self.tp_degree,
            per_shard_overhead=self.sync_overhead,
            callback=callback, tag=tag,
        )

    def adapter_load_time(self, link: PcieLink, nbytes: int) -> float:
        """Unloaded service time of a (possibly sharded) adapter load."""
        if self.tp_degree == 1:
            return link.transfer_time(nbytes)
        per_shard = self.sync_overhead + link.spec.setup_latency
        return link.transfer_time(nbytes) + self.tp_degree * per_shard


@dataclass
class TenantBook:
    """One admission lane's dispatch ledger: one per tenant under a tenancy
    policy, reported in ``DispatchStats.tenants`` (the tenancy-off FIFO
    lane keeps its book off that map).

    Counters are *offers and outcomes at this cluster*: a migrated request
    re-offered after a crash counts ``submitted`` again, exactly as it
    counts ``DispatchStats.arrivals`` again.  At any instant

        submitted + stolen == admitted + shed + donated + waiting

    holds per tenant (``waiting``: its lane length plus its entries parked
    in the shared deprioritized lane), and every counter summed over the
    books equals its ``DispatchStats`` twin.  ``admitted - borrowed -
    deprioritized`` is bounded by the lane's token bucket (burst + rate x
    horizon); the deprioritized lane bypasses quota because it only drains
    idle capacity by construction.
    """

    weight: float = 1.0        # the lane's DRR quantum (max(1, class weight))
    submitted: int = 0         # offers to the dispatcher (incl. migrations)
    admitted: int = 0          # handed to an engine here
    queued: int = 0            # offers that waited in a lane
    shed: int = 0              # rejected by the SLO policy
    deprioritized: int = 0     # moved to the shared low-priority lane
    throttled: int = 0         # lane visits skipped on an empty token bucket
    borrowed: int = 0          # admissions past the cap while capacity idled
    donated: int = 0           # lane entries handed to a sibling shard
    stolen: int = 0            # entries accepted from a sibling's lanes
    lost: int = 0              # stranded by replica failures
    virtual_time: float = 0.0  # cumulative admitted service / weight


#: DRR quantum of the one lane of a dispatcher without a tenancy policy.  No
#: run spends 2**53 serves, so the lane never ends a visit on a spent deficit
#: and drains in exact FIFO order; a power of two keeps its wait estimate
#: float-equal to ``estimated_queue_wait``.  (``math.inf`` would not do:
#: ``0 * inf`` is NaN, and a NaN wait never sheds.)
FIFO_QUANTUM = 2.0 ** 53


class _TokenBucket:
    """Request-rate token bucket: ``rate`` tokens/s, depth ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst  # a fresh lane may burst immediately
        self.stamp = now

    def try_take(self, now: float) -> bool:
        """Spend one token if the bucket has one (refilled lazily)."""
        if now > self.stamp:
            self.tokens = min(
                self.burst, self.tokens + self.rate * (now - self.stamp))
            self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def available(self, now: float) -> float:
        """Tokens the bucket would hold at ``now`` (no refill side effect)."""
        if now <= self.stamp:
            return self.tokens
        return min(self.burst, self.tokens + self.rate * (now - self.stamp))


class _Lane:
    """One admission lane: its waiting ``(request, enqueue_time)`` entries,
    its carried DRR deficit, its token bucket (``None``: uncapped) and its
    ledger, whose ``weight`` is the lane's DRR quantum."""

    __slots__ = ("key", "entries", "deficit", "bucket", "book")

    def __init__(self, key, book: TenantBook,
                 bucket: Optional[_TokenBucket]) -> None:
        self.key = key
        self.entries: deque = deque()
        self.deficit = 0.0
        self.bucket = bucket
        self.book = book


@dataclass
class DispatchStats:
    """Global-dispatcher telemetry (queueing, routing, SLO admission)."""

    arrivals: int = 0          # every request offered to the dispatcher
    dispatched: int = 0        # requests handed to an engine
    finishes: int = 0          # engine finish events observed cluster-wide
    queued: int = 0            # arrivals that waited in a cluster queue
    spills: int = 0            # bounded-affinity fallbacks past the bound
    shed: int = 0              # arrivals rejected by the SLO policy
    deprioritized: int = 0     # arrivals moved to the low-priority lane
    failures: int = 0          # replica crash events (fault injection)
    stalls: int = 0            # transient-stall fault windows opened
    migrations: int = 0        # requests re-dispatched off a dead/draining
    #                            replica (each re-offer counts once)
    lost: int = 0              # requests stranded forever by a failure
    donated: int = 0           # queued requests handed to a sibling shard
    stolen: int = 0            # requests accepted from a sibling's queue
    queue_delays: list = field(default_factory=list)  # seconds, queued only
    #: tenant id -> TenantBook; populated only under a TenantFairnessPolicy
    #: (empty otherwise — the one FIFO lane keeps its book to itself).
    tenants: dict = field(default_factory=dict)


#: EWMA weight of the newest cluster-wide inter-finish interval sample in the
#: dispatcher's queue-wait estimator (higher = more reactive, noisier).
FINISH_INTERVAL_EWMA_ALPHA = 0.2


class DataParallelCluster:
    """A set of independent engines behind a global dispatcher.

    The dispatcher implements the two-level scheduling of §4.4: routing
    (``policy``) plus a global admission queue.  With ``backpressure`` on,
    an arrival finding *every* engine saturated (batch at capacity) waits in
    a cluster-level queue rather than being force-submitted; engines pull
    from the queue as finish events free batch slots, and the time each
    request spent waiting is stamped on ``request.dispatch_queue_delay``.

    **Admission lanes**: waiting arrivals sit in lanes drained by deficit
    round-robin (DRR, :meth:`_fair_step`).  With a
    :class:`~repro.serving.admission.TenantFairnessPolicy` (``tenancy=``)
    each tenant gets a lane on its first request, its class weight as DRR
    quantum and its quota as a token bucket.  Without one there is a single
    lane — key ``None``, no bucket, quantum :data:`FIFO_QUANTUM`, which no
    run can spend — so it drains in exact FIFO order.  Tenancy picks only
    data (lane key, quantum and rate, trace label ``drr`` or ``fifo``,
    whether ``stats.tenants`` reports the lane ledgers); every arrival,
    drain, release, donation, steal and crash takes the same path.

    **Load accounting** has one path: the dispatcher counts each engine's
    in-flight requests itself (+1 per ``submit``, -1 per ``on_finish``
    callback, re-read through ``in_flight_count()`` after ``fail`` and
    ``evacuate_unstarted``) against the batch cap in
    ``engine.config.max_batch_size``.  An engine that finishes work without
    firing its finish hooks would look loaded forever.

    **Picks** have one implementation per policy.  ``least_loaded``, the
    one policy run on wide fleets, peeks a count heap over those counters
    while every capability weight is 1.0 and the fleet shares one batch
    cap.  Every other pick, and ``least_loaded`` on a mixed fleet, scans
    the candidates in :meth:`_pick`, reading each engine live: a token
    load is an O(1) running sum, and residency is asked of the engine's
    adapter manager.

    **SLO admission** (``slo_policy``): whenever an arrival would have to
    queue, the dispatcher estimates its wait from its lane position
    (:meth:`_estimated_lane_wait`; in the FIFO lane, ``position x`` an EWMA
    of cluster-wide inter-finish intervals — each finish event admits one
    queued request, so the finish rate *is* the drain rate).  An arrival
    whose estimate exceeds its TTFT deadline is past the knee: it is either
    shed (rejected, with accounting) or deprioritized into a low-priority
    lane that drains only while every other lane is empty.

    **Heterogeneous fleets**: engines exposing a ``capability()`` probe (a
    relative throughput weight; see ``ServingEngine.capability``) get every
    load reading normalized by it, so JSQ/p2c/token-weighted routing and the
    bounded-affinity spill bound compare *utilization* rather than raw
    backlog and a fast replica is offered proportionally more work.
    Saturation is inherently per-replica (each engine's own batch cap) and
    needs no normalization.  Homogeneous fleets are bit-for-bit unaffected.
    Pass a ``capability_estimator`` (an
    :class:`~repro.serving.autoscaler.ObservedCapabilityEstimator`) to derive
    the weights from *observed* per-replica service rates instead of specs —
    robust to PCIe-bound workloads where spec capability misleads, with a
    spec prior for replicas that have no history yet.

    **Elastic fleets**: every engine sits behind a
    :class:`~repro.serving.replica.ReplicaHandle`; all routing, saturation
    probes, capability normalization and queue drains operate over the
    *current active set*.  :meth:`add_replica` grows the fleet mid-run
    (cold-start delays apply before the newcomer becomes a dispatch target);
    :meth:`drain_replica` lets a replica finish its in-flight work while
    accepting nothing new, then retires it.  Engine indices are stable for
    the life of the run — retired replicas keep their slot, so per-replica
    accounting never shifts.  A cluster built from a static engine list has
    every handle ACTIVE from the start and behaves bit-for-bit as before.

    **Faults**: :meth:`fail_replica` kills a replica (terminal FAILED state,
    pending engine events bulk-cancelled via ``Simulator.cancel_if``) and
    migrates all its work back through this dispatch path — or strands it
    as ``lost`` for the no-recovery baseline;
    :meth:`stall_replica` opens a transient window during which the replica
    accepts nothing (it keeps serving in-flight work and rejoins
    afterwards).  Dispatch eligibility everywhere is
    ``ReplicaHandle.accepts_work``: ACTIVE and not stalled.

    Policies (see also the table in :mod:`repro.serving.replica`):

    * ``"least_loaded"`` — join the engine with the fewest in-flight requests
      (running + queued), the classic JSQ heuristic.
    * ``"round_robin"`` — cyclic assignment.
    * ``"p2c"`` — power-of-two-choices: sample two engines, join the less
      loaded; near-JSQ balance with O(1) load probes.
    * ``"token_weighted"`` — JSQ over in-flight *tokens* (remaining prefill +
      predicted remaining decode) instead of request count, so one huge
      request counts for what it costs.
    * ``"adapter_affinity"`` — prefer the least-loaded engine among those
      that already have the request's adapter resident (falls back to JSQ);
      exploits the per-engine adapter caches.  Unbounded: a hot adapter can
      pile its whole stream onto one replica.
    * ``"bounded_affinity"`` — adapter affinity with a spill bound: when the
      affine replica's load exceeds ``spill_factor`` times the cluster mean,
      fall back to JSQ (consistent-hashing-with-bounded-loads style).
    """

    POLICIES = (
        "least_loaded",
        "round_robin",
        "adapter_affinity",
        "p2c",
        "token_weighted",
        "bounded_affinity",
    )

    def __init__(
        self,
        engines: Sequence,
        policy: str = "least_loaded",
        *,
        backpressure: bool = True,
        spill_factor: float = 1.5,
        slo_policy=None,
        normalize_capability: bool = True,
        rng: Optional[np.random.Generator] = None,
        capability_estimator=None,
        sim=None,
        tenancy=None,
    ) -> None:
        if not engines:
            raise ValueError("cluster needs at least one engine")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown dispatch policy {policy!r}; pick from {self.POLICIES}")
        if spill_factor < 1.0:
            raise ValueError(f"spill_factor must be >= 1.0, got {spill_factor}")
        if slo_policy is not None and not backpressure:
            raise ValueError(
                "SLO admission needs backpressure: the knee is the global "
                "queue, which force-submission bypasses")
        if tenancy is not None and not backpressure:
            raise ValueError(
                "tenant fairness needs backpressure: quotas and DRR act on "
                "the global queue, which force-submission bypasses")
        self.engines = list(engines)
        self.policy = policy
        self.backpressure = backpressure
        self.spill_factor = spill_factor
        self.slo_policy = slo_policy
        self.tenancy = tenancy
        self.normalize_capability = normalize_capability
        self.capability_estimator = capability_estimator
        self.stats = DispatchStats()
        # Observability hooks (see repro.obs): both default to None, and
        # every hook site is guarded by an `is not None` attribute check —
        # the disabled path never makes a call.  `attach_tracer` /
        # `attach_metrics` set them after construction; the tid fields are
        # pre-seeded for shard 0 so a tracer attached without a region
        # still lands on valid tracks.
        self._tracer = None
        self._trace_shard = 0
        self._trace_tid = 1           # dispatcher_tid(0)
        self._replica_tid_base = 1000  # replica_tid(0, i) - i
        self._metrics = None
        self._metrics_prefix = ""
        self._metrics_ttft = None
        self._sim = sim
        self._sim_memo = None  # resolved clock, cached on first use
        self._rng = rng if rng is not None else np.random.default_rng(0)  # simlint: ignore[D001] -- dispatch RNG byte stream pinned since PR 1; moving it into RngStreams would re-pair every fig26-fig30 baseline
        self._rr_next = 0
        self._low_queue: deque = deque()  # deprioritized lane (SLO policy)
        self._shed: list = []             # arrivals rejected by SLO admission
        # Admission lanes (see the class docstring).  Lanes live in a dict
        # keyed by tenant id (or None), but every dispatch-path iteration
        # walks `_lane_ring` — the deterministic activation-order list.
        self._lanes: dict = {}            # key -> _Lane
        self._lane_ring: list = []        # lane keys, activation order
        self._lane_cursor: int = 0        # DRR position in _lane_ring
        self._visit_open: bool = False    # mid-visit at the cursor lane
        self._backlog: int = 0            # total queued across lanes
        self._by_tenant = tenancy is not None
        self._lane_label = "drr" if self._by_tenant else "fifo"
        self._slo_trace_lane = {"lane": "drr"} if self._by_tenant else {}
        if not self._by_tenant:
            self._open_lane(None, TenantBook(weight=FIFO_QUANTUM), None)
        #: One record per migrated request re-offer: time, request id, the
        #: replica it was evacuated from, and its retry ordinal.
        self.migration_log: list[dict] = []
        self._stall_until: dict[int, float] = {}  # replica -> stall deadline
        # Queue-wait estimator state (cluster-wide inter-finish EWMA).
        # Finishes sharing one timestamp (a batch completing in one engine
        # iteration) count as one drain event of that size, not as zero-
        # length intervals — those would collapse the EWMA at every batch
        # boundary and make shed decisions track batch phase, not backlog.
        self._finish_interval_ewma: Optional[float] = None
        self._last_finish_time: Optional[float] = None
        self._finish_batch = 0  # finishes observed at _last_finish_time
        # Lifecycle: every engine sits behind a ReplicaHandle; the initial
        # fleet starts ACTIVE.  Lazy import — the hardware layer must not
        # import the serving package at module load (cycle).
        from repro.serving.replica import ReplicaHandle
        now = self._now()
        self.handles = [
            ReplicaHandle(engine=engine, index=i, provisioned_at=now,
                          active_at=now)
            for i, engine in enumerate(self.engines)
        ]
        #: (time, replica index, new state) for every lifecycle transition.
        self.lifecycle_log: list[tuple] = [
            (now, handle.index, handle.state.value) for handle in self.handles
        ]
        # Load bookkeeping: the dispatcher keeps each engine's in-flight
        # count itself — +1 on submit, -1 on the engine's finish hook,
        # re-read from the engine after the bulk moves that bypass both
        # (crash evacuation, drain migration) — and reads each batch cap
        # from ``engine.config.max_batch_size``.  Every probe, saturation
        # check and fleet sum below is a counter read, never an engine walk.
        self._inflight: list[int] = []
        self._batch_cap: list[float] = []
        self._is_eligible: list[bool] = []
        self._uniform_batch_cap: bool = True  # one shared max_batch_size
        # The one dispatch index: a count heap over those counters, for
        # ``least_loaded`` only (see `_index_active`).  Every other pick
        # scans its candidates live in `_pick`.
        self._count_heap: Optional[MinLoadHeap] = (
            MinLoadHeap() if policy == "least_loaded" else None)
        self._heap_limit = 4 * len(self.engines) + 64
        self._total_inflight: int = 0        # fleet-wide
        self._sum_eligible_inflight: int = 0  # dispatch-eligible engines only
        self._eligible_cap: float = 0.0      # their summed batch caps
        for engine in self.engines:
            self._track_engine(engine)
        # Dispatch-eligibility cache: lifecycle and stall transitions are
        # rare, so the `accepts_work` sweep is recomputed only then.
        # `_n_unsat` counts the eligible engines with headroom, maintained
        # incrementally on submit/finish: zero means no eligible replica can
        # take a request (all saturated, or none eligible at all).
        self._eligible: list[int] = []
        self._n_unsat: int = 0
        #: Region-router hooks fired whenever a capacity-freeing event
        #: (finish, activation, stall end) leaves this cluster able to admit
        #: — the work-stealing trigger.  Empty for a standalone cluster, in
        #: which case the notify path is a no-op.
        self._capacity_callbacks: list = []
        self._refresh_eligible()
        # Per-engine capability weights, normalized to mean 1.0 over the
        # active set.  Identical capabilities (or none reported) keep every
        # weight at exactly 1.0 so homogeneous clusters behave bit-for-bit
        # as before.
        self._caps_raw = [self._engine_capability(engine) for engine in self.engines]
        if capability_estimator is not None:
            for index, cap in enumerate(self._caps_raw):
                capability_estimator.register(index, cap)
        self._capability = [1.0] * len(self.engines)
        self._recompute_weights()
        # Pull-based dispatch: drain the global queue on finish events.
        for handle in self.handles:
            self._register_finish(handle)

    @staticmethod
    def _engine_capability(engine) -> float:
        probe = getattr(engine, "capability", None)
        cap = float(probe()) if callable(probe) else 1.0
        if cap <= 0:
            raise ValueError(f"engine capability must be > 0, got {cap}")
        return cap

    def _register_finish(self, handle) -> None:
        handle.engine.on_finish(
            lambda request, _h=handle: self._on_engine_finish(_h, request))

    # ------------------------------------------------------------------ #
    # Incremental load bookkeeping (hot-path caches)
    # ------------------------------------------------------------------ #
    def _track_engine(self, engine) -> None:
        """Append load-cache slots for a (new) engine."""
        count = engine.in_flight_count()
        self._inflight.append(count)
        self._total_inflight += count
        self._batch_cap.append(float(engine.config.max_batch_size))
        # Not dispatch-eligible until the next lifecycle refresh.
        self._is_eligible.append(False)
        self._uniform_batch_cap = min(self._batch_cap) == max(self._batch_cap)

    def _refresh_eligible(self) -> None:
        """Recompute the dispatch-eligibility caches (same order as the
        ``accepts_work`` sweep they replace: ascending replica index).

        Lifecycle and stall transitions are the only triggers, so this is
        also where every O(1) fleet counter (active/fleet/holding/failed,
        the autoscaler's per-tick reads) and the count heap are
        rebuilt from scratch — an O(n) sweep per *transition* instead of
        per tick or per arrival."""
        self._eligible = [h.index for h in self.handles if h.accepts_work]
        self._is_eligible = [False] * len(self.engines)
        inflight, cap = self._inflight, self._batch_cap
        n_unsat = 0
        sum_eligible = 0
        cap_eligible = 0.0
        for idx in self._eligible:
            self._is_eligible[idx] = True
            sum_eligible += inflight[idx]
            cap_eligible += cap[idx]
            if inflight[idx] < cap[idx]:
                n_unsat += 1
        self._n_unsat = n_unsat
        self._sum_eligible_inflight = sum_eligible
        self._eligible_cap = cap_eligible
        # O(1) fleet-composition counters (ascending-index sweeps, same
        # membership as the per-call scans they replace).
        n_active = n_in_fleet = n_holding = n_failed = 0
        active: list[int] = []
        serving: list[int] = []
        for handle in self.handles:
            if handle.is_active:
                n_active += 1
                active.append(handle.index)
            if handle.is_active or handle.is_draining:
                serving.append(handle.index)
            if handle.in_fleet:
                n_in_fleet += 1
            if handle.is_failed:
                n_failed += 1
            elif not handle.is_retired:
                n_holding += 1
        self._n_active = n_active
        self._n_in_fleet = n_in_fleet
        self._n_holding = n_holding
        self._n_failed = n_failed
        self._active_cache = active
        self._serving_cache = serving
        # Rebuild the count heap over the new membership.
        self._heap_limit = 4 * len(self.engines) + 64
        if self._count_heap is not None:
            self._count_heap.rebuild((inflight[i], i) for i in self._eligible)

    def _resync_load(self, idx: int) -> None:
        """Re-read engine ``idx``'s true in-flight count after a bulk move
        (crash evacuation, drain migration) that bypassed submit/finish."""
        stale = self._inflight[idx]
        self._inflight[idx] = self.engines[idx].in_flight_count()
        self._total_inflight += self._inflight[idx] - stale
        self._refresh_eligible()  # the saturation count may have moved

    def _recompute_weights(self) -> None:
        """Refresh per-engine capability weights over the *active* set.

        Weights of non-active replicas stay at 1.0 — they receive no new
        work, so their value never feeds a routing decision.  With a
        capability estimator the weights track observed service rates;
        otherwise they are the spec-derived probes captured at registration.
        A static homogeneous fleet keeps every weight at exactly 1.0.
        """
        # The active set only moves on lifecycle transitions, which all
        # refresh the cache before landing here — estimator-driven calls
        # (one per finish sample) reuse it instead of sweeping the fleet.
        active = self._active_cache
        self._capability = [1.0] * len(self.engines)
        self._uniform_caps = True  # routing may skip the division entirely
        if not active or not self.normalize_capability:
            return
        if self.capability_estimator is not None:
            weights = self.capability_estimator.weights(active)
            caps = [weights[i] for i in active]
        else:
            caps = [self._caps_raw[i] for i in active]
        if max(caps) == min(caps):
            return
        mean_cap = sum(caps) / len(caps)
        for index, cap in zip(active, caps):
            self._capability[index] = cap / mean_cap
        self._uniform_caps = False

    # ------------------------------------------------------------------ #
    # Dispatch path
    # ------------------------------------------------------------------ #
    def dispatch(self, request) -> Optional[int]:
        """Route ``request``: submit it to an engine, queue it, or shed it.

        Returns the engine index, or ``None`` when the request waits in its
        lane (released as finish events free capacity) or the SLO policy
        shed it (``request.shed`` is set; it never runs).  An elastic fleet
        can be momentarily replica-less (everything provisioning, or
        draining out): such arrivals always wait — backpressure or not,
        there is nowhere to submit — until a replica activates.

        Immediate admission (:meth:`can_admit`) charges the lane's token
        bucket, if any; with the bucket empty it proceeds — counted
        ``borrowed`` — only while the fleet has genuine slack
        (:meth:`_fleet_has_idle`): a serve past quota is free exactly when
        it cannot delay in-quota tenants behind a deepening engine backlog.
        Arrivals that must wait pass the lane-aware SLO gate, then park in
        their lane.
        """
        self.stats.arrivals += 1
        lane = self._lane_for(request)
        book = lane.book
        book.submitted += 1
        if self.can_admit():
            bucket = lane.bucket
            if bucket is None or bucket.try_take(self._now()):
                return self._submit(request)
            if self._fleet_has_idle():
                book.borrowed += 1
                return self._submit(request)
        if self.slo_policy is not None:
            deadline = self.slo_policy.deadline_for(request)
            if self._estimated_lane_wait(lane) > deadline:
                if self.slo_policy.mode == "shed":
                    request.shed = True
                    self.stats.shed += 1
                    book.shed += 1
                    self._shed.append(request)
                    if self._tracer is not None:
                        self._trace_slo("slo_shed", request, deadline)
                    return None
                request.deprioritized = True
                self.stats.deprioritized += 1
                self.stats.queued += 1
                book.deprioritized += 1
                book.queued += 1
                if self._tracer is not None:
                    self._trace_slo("slo_deprioritize", request, deadline)
                self._low_queue.append((request, self._now()))
                self._drain()
                return None
        lane.entries.append((request, self._now()))
        self._backlog += 1
        self.stats.queued += 1
        book.queued += 1
        self._drain()
        return None

    def _trace_slo(self, name: str, request, deadline: float) -> None:
        """Mark an SLO decision on the dispatcher track (tracer attached)."""
        self._tracer.instant(
            name, self._now(), self._trace_tid,
            request_id=request.request_id, **self._slo_trace_lane,
            **self.slo_policy.trace_args(request, deadline))

    def can_admit(self) -> bool:
        """True when an arrival offered right now would be submitted to an
        engine immediately (no queueing, no shed): some replica is eligible
        and, under backpressure, nothing is already waiting and not every
        eligible replica is saturated.  O(1) — the region router calls
        this per arrival to decide spills, and the work-stealing loop calls
        it per steal."""
        return bool(self._eligible) and not (
            self.backpressure and (self._backlog or not self._n_unsat))

    def estimated_queue_wait(self) -> float:
        """Predicted queue wait, in seconds, of an arrival behind every
        queued request (the FIFO bound; in a tenancy-off cluster, exactly
        what the SLO gate reads).

        Each cluster-wide finish event admits one queued request, so the
        wait at position ``k`` (1-based) is about ``k`` inter-finish
        intervals.  Before any finish has been observed the estimator is
        optimistic (0.0): cold starts admit.
        """
        if self._finish_interval_ewma is None:
            return 0.0
        return (self._backlog + 1) * self._finish_interval_ewma

    def queue_len(self) -> int:
        """Requests currently waiting at the cluster (all lanes)."""
        return self._backlog + len(self._low_queue)

    def pending_requests(self) -> list:
        """Requests still waiting at the cluster (never dispatched).

        Covers every lane — lanes in activation order, then the
        deprioritized lane.  Non-empty only when a run stops at a horizon
        while the cluster is backlogged; accounting must not lose these
        arrivals.
        """
        pending = [request for key in self._lane_ring
                   for request, _ in self._lanes[key].entries]
        pending.extend(request for request, _ in self._low_queue)
        return pending

    def shed_requests(self) -> list:
        """Arrivals the SLO policy rejected (they never ran)."""
        return list(self._shed)

    def capability_weights(self) -> list:
        """Per-engine relative capability weights used to normalize loads
        (all 1.0 on a homogeneous fleet or with normalization disabled;
        recomputed on membership changes and, with a capability estimator,
        on every finish event)."""
        return list(self._capability)

    def _submit(self, request) -> int:
        """Hand ``request`` to an engine, booked on its lane (opened by
        :meth:`_lane_for`); virtual time grows by the inverse quantum, so
        equal virtual times mean weight-proportional service."""
        book = self._lanes[request.tenant_id if self._by_tenant else None].book
        book.admitted += 1
        book.virtual_time += 1.0 / book.weight
        # Only ACTIVE, un-stalled replicas are dispatch targets:
        # provisioning replicas have not joined yet, draining ones
        # accept nothing new, stalled ones are mid-fault, and failed ones
        # are gone.
        inflight, cap = self._inflight, self._batch_cap
        if self._index_active():
            # The heap's minimum count is below the shared cap whenever any
            # replica has headroom, so the saturation filter never changes
            # its pick.
            idx = self._count_heap.peek(inflight, self._is_eligible)
        else:
            candidates = self._eligible
            # Never force-feed a saturated engine while another has room —
            # that is the exact failure mode the global queue exists to
            # prevent.  Skip the filter when the counters prove every
            # candidate has headroom.
            if self.backpressure and self._n_unsat != len(candidates):
                unsaturated = [i for i in candidates if inflight[i] < cap[i]]
                if unsaturated:
                    candidates = unsaturated
            idx = self._pick(request, candidates)
        self.engines[idx].submit(request)
        inflight[idx] += 1
        self._total_inflight += 1
        if self._is_eligible[idx]:
            self._sum_eligible_inflight += 1
            if inflight[idx] == cap[idx]:
                self._n_unsat -= 1  # just became saturated
        if self._count_heap is not None:
            self._push_count(idx)
        self.stats.dispatched += 1
        return idx

    def _on_engine_finish(self, handle, request) -> None:
        now = self._now()
        self.stats.finishes += 1
        if self._metrics_ttft is not None:
            first = request.first_token_time
            if first is not None:
                self._metrics_ttft.observe(first - request.arrival_time)
        idx = handle.index
        self._inflight[idx] -= 1
        self._total_inflight -= 1
        if self._is_eligible[idx]:
            self._sum_eligible_inflight -= 1
            if self._inflight[idx] == self._batch_cap[idx] - 1:
                self._n_unsat += 1  # just regained headroom
        if self._count_heap is not None:
            self._push_count(idx)
        if self._last_finish_time is None:
            self._last_finish_time = now
            self._finish_batch = 1
        elif now == self._last_finish_time:
            self._finish_batch += 1  # same drain event, defer the sample
        else:
            # The previous drain event freed ``_finish_batch`` slots and it
            # took ``now - last`` until the next one: the per-slot drain
            # interval is the gap amortized over that batch.
            interval = (now - self._last_finish_time) / self._finish_batch
            if self._finish_interval_ewma is None:
                self._finish_interval_ewma = interval
            else:
                alpha = FINISH_INTERVAL_EWMA_ALPHA
                self._finish_interval_ewma = (
                    (1.0 - alpha) * self._finish_interval_ewma + alpha * interval
                )
            self._last_finish_time = now
            self._finish_batch = 1
        if self.capability_estimator is not None:
            # Recompute weights only when a rate sample actually landed:
            # batched same-timestamp finishes just grow the pending batch.
            if self.capability_estimator.observe_finish(
                    idx, now, idle=self._inflight[idx] == 0):
                self._recompute_weights()
        if self._inflight[idx] == 0 and handle.is_draining:
            self._retire(handle)
        # With nothing waiting there is nothing to drain, and a standalone
        # cluster has no capacity hook to notify.
        if self._backlog or self._low_queue:
            self._drain()
        if self._capacity_callbacks:
            self._notify_capacity()

    def _drain(self) -> None:
        """Release waiting requests while some eligible replica has
        headroom (``_n_unsat``)."""
        while self._backlog and self._n_unsat:
            if not self._fair_step():
                break  # every backlogged lane throttled, fleet busy
        # The low-priority lane drains only while every other lane is
        # empty: a deprioritized request never delays a deadline-feasible
        # one.  It bypasses the token buckets: by construction it only ever
        # consumes capacity no in-quota lane wanted.
        low = self._low_queue
        while not self._backlog and low and self._n_unsat:
            self._release(low.popleft())

    def _release(self, entry) -> None:
        request, enqueued_at = entry
        # Accumulate, don't overwrite: a migrated request can pass through
        # the queue once before its replica died and again after — its
        # delay is the total time spent waiting at the cluster.  First-pass
        # requests start at 0.0, so fault-free runs are bit-identical.
        now = self._now()
        delay = now - enqueued_at
        request.dispatch_queue_delay += delay
        self.stats.queue_delays.append(delay)
        if self._tracer is not None:
            # A tenant lane's span carries its DRR deficit at release time:
            # the "why did this tenant wait" answer.
            lane = self._lane_for(request)
            args = dict(lane="low" if request.deprioritized
                        else self._lane_label)
            if lane.key is not None:
                args["tenant"] = lane.key
                args["deficit"] = round(lane.deficit, 6)
            self._tracer.span("dispatch", enqueued_at, now, self._trace_tid,
                              request.request_id, **args)
        self._submit(request)

    # ------------------------------------------------------------------ #
    # Admission lanes: deficit round-robin under token-bucket quotas
    # ------------------------------------------------------------------ #
    def _lane_for(self, request) -> _Lane:
        """The request's lane: the FIFO lane opened at construction, or its
        tenant's lane, opened on first sight with the DRR quantum of the
        first request's SLO class (classes are per-tenant in the population
        model), rounded up to 1 so every backlogged lane is entitled to a
        serve per DRR round — the no-starvation bound."""
        key = request.tenant_id if self._by_tenant else None
        lane = self._lanes.get(key)
        if lane is None:
            tenancy = self.tenancy
            rate = tenancy.rate_for(key)
            lane = self._open_lane(
                key, TenantBook(weight=max(
                    1.0, tenancy.weight_for(request.slo_class))),
                None if rate is None else _TokenBucket(
                    rate, tenancy.quota_burst, self._now()))
            self.stats.tenants[key] = lane.book
        return lane

    def _open_lane(self, key, book: TenantBook,
                   bucket: Optional[_TokenBucket]) -> _Lane:
        lane = _Lane(key, book, bucket)
        self._lanes[key] = lane
        self._lane_ring.append(key)
        return lane

    def _estimated_lane_wait(self, lane: _Lane) -> float:
        """Predicted queue wait of an arrival joining ``lane``.

        Under DRR the wait follows the arrival's position in its *own* lane
        and the round cadence, not the global backlog one hot tenant can
        inflate: position ``p`` takes about ``p / quantum`` rounds, each
        serving the summed quanta of the backlogged lanes, capped at the
        whole-backlog FIFO bound.  A rate-capped lane drains no faster than
        its bucket refills, so the wait is at least the time for the bucket
        to cover the lane — the term that sheds a storm once its lane holds
        a deadline's worth of quota, while a victim with an empty lane
        admits on its own merits.  For the FIFO lane this is
        :meth:`estimated_queue_wait`.
        """
        if self._finish_interval_ewma is None:
            return 0.0
        position = len(lane.entries) + 1
        quantum = lane.book.weight
        lanes = self._lanes
        per_round = sum(lanes[k].book.weight
                        for k in self._lane_ring if lanes[k].entries)
        per_round = max(per_round, quantum)
        serves = min((position / quantum) * per_round,
                     self._backlog + position)
        wait = serves * self._finish_interval_ewma
        bucket = lane.bucket
        if bucket is not None:
            short = position - bucket.available(self._now())
            if short > 0:
                wait = max(wait, short / bucket.rate)
        return wait

    def _fair_step(self) -> bool:
        """Serve at most one lane entry by deficit round-robin.

        The cursor walks ``_lane_ring``; arriving at a lane opens a *visit*
        that tops its deficit up by the quantum (capped at twice the
        quantum, so a throttled lane's entitlement stays bounded); the visit
        lasts — across saturation pauses — until the lane is out of backlog,
        deficit or quota tokens.  One full sweep serves every backlogged
        lane at least once unless its bucket is empty; if a sweep serves
        nothing, every backlogged lane is out of quota, and — only while the
        fleet has genuine slack (:meth:`_fleet_has_idle`) — the next
        backlogged lane in ring order is served past its cap (``borrowed``:
        quotas are relative shares, but borrowing against a *busy* fleet
        would just park the overflow in engine queues ahead of in-quota
        work).  Returns whether an entry was served; ``False`` leaves the
        backlog waiting for tokens (a later capacity event re-drains).
        Callers guarantee backlog and headroom.
        """
        ring = self._lane_ring
        lanes = self._lanes
        now = self._now()
        for _ in range(len(ring)):
            lane = lanes[ring[self._lane_cursor]]
            entries = lane.entries
            if not self._visit_open:
                quantum = lane.book.weight
                lane.deficit = min(lane.deficit + quantum,
                                   2.0 * quantum) if entries else 0.0
                self._visit_open = True
            if entries and lane.deficit >= 1.0:
                bucket = lane.bucket
                if bucket is None or bucket.try_take(now):
                    lane.deficit -= 1.0
                    entry = entries.popleft()
                    self._backlog -= 1
                    if not entries:
                        lane.deficit = 0.0
                        self._advance_lane()
                    self._release(entry)
                    return True
                lane.book.throttled += 1  # once per visit, not per entry
            self._advance_lane()
        # Full sweep, nothing in quota: borrow-from-idle on the next
        # backlogged lane in ring order — idle fleet only.
        if not self._fleet_has_idle():
            return False
        for _ in range(len(ring)):
            lane = lanes[ring[self._lane_cursor]]
            if lane.entries:
                lane.book.borrowed += 1
                entry = lane.entries.popleft()
                self._backlog -= 1
                self._advance_lane()
                self._release(entry)
                return True
            self._advance_lane()
        return False

    def _fleet_has_idle(self) -> bool:
        """True when the dispatch-eligible fleet has genuine slack: total
        in-flight work below half the aggregate batch capacity.  This is
        the borrow-from-idle predicate — past-quota admissions are free
        while it holds (in-quota arrivals still see shallow engines) and
        harmful once engines are deep.  An empty fleet is slack.
        """
        cap = self._eligible_cap
        return self._sum_eligible_inflight * 2.0 < cap if cap else True

    def _advance_lane(self) -> None:
        self._lane_cursor = (self._lane_cursor + 1) % len(self._lane_ring)
        self._visit_open = False

    def _simulator(self):
        sim = self._sim_memo
        if sim is None:
            sim = self._sim if self._sim is not None else getattr(
                self.engines[0], "sim", None)
            self._sim_memo = sim
        return sim

    def _now(self) -> float:
        sim = self._sim_memo
        if sim is None:
            sim = self._simulator()
        return sim.now if sim is not None else 0.0

    # ------------------------------------------------------------------ #
    # Replica lifecycle (elastic fleets)
    # ------------------------------------------------------------------ #
    def add_replica(self, engine, *, provision_delay: float = 0.0):
        """Grow the fleet mid-run.

        The replica starts PROVISIONING, pays ``provision_delay`` (cold
        start: container pull, weight load), and only then joins the
        dispatch set — at which point any queued work drains into it
        immediately.  Returns the new
        :class:`~repro.serving.replica.ReplicaHandle`.
        """
        if provision_delay < 0:
            raise ValueError("cold-start delays must be >= 0")
        from repro.serving.replica import ReplicaHandle, ReplicaState
        if provision_delay > 0 and self._simulator() is None:
            raise ValueError(
                "cold-start delays need a simulated clock: pass sim= to the "
                "cluster or use engines exposing .sim")
        index = len(self.engines)
        now = self._now()
        self.engines.append(engine)
        self._track_engine(engine)
        handle = ReplicaHandle(engine=engine, index=index,
                               state=ReplicaState.PROVISIONING,
                               provisioned_at=now)
        self.handles.append(handle)
        self._caps_raw.append(self._engine_capability(engine))
        self._capability.append(1.0)
        if self.capability_estimator is not None:
            self.capability_estimator.register(index, self._caps_raw[index])
        self._register_finish(handle)
        if self._tracer is not None:
            self._attach_engine_tracer(engine, index)
        if self._metrics is not None:
            self._register_replica_gauge(index)
        self._log_transition(handle)
        if provision_delay > 0:
            handle.pending_event = self._simulator().schedule(
                provision_delay, self._activate, handle)
        else:
            self._activate(handle)
        return handle

    def drain_replica(self, index: int, *, migrate: bool = False):
        """Shrink the fleet: stop offering new work to replica ``index``.

        An ACTIVE replica transitions to DRAINING, finishes its in-flight
        work and retires on its last finish — no request is lost.  With
        ``migrate=False`` (the default, bit-for-bit the historic behaviour)
        that includes waiting out its local queue; with ``migrate=True`` the
        replica's queued and admitted-but-unstarted requests are evacuated
        and re-dispatched through the normal admission path instead, so the
        drain completes as soon as the *started* work finishes.  A replica
        still cold (PROVISIONING) has its pending timer cancelled
        and retires immediately: it never served.  Idempotent on
        draining/retired/failed replicas.  Returns the handle.
        """
        handle = self.handles[index]
        if handle.is_retired or handle.is_draining or handle.is_failed:
            return handle
        now = self._now()
        if not handle.is_active:
            if handle.pending_event is not None:
                sim = self._simulator()
                if sim is not None:
                    sim.cancel(handle.pending_event)
                handle.pending_event = None
            handle.retire(now)
            self._log_transition(handle)
            self._recompute_weights()
            return handle
        handle.begin_drain(now)
        self._log_transition(handle)
        self._recompute_weights()
        if migrate:
            evacuated = handle.engine.evacuate_unstarted()
            self._resync_load(index)  # evacuation bypassed submit/finish
            self._migrate(evacuated, index)
        if self._inflight[index] == 0:
            self._retire(handle)
        return handle

    # ------------------------------------------------------------------ #
    # Faults: crashes, transient stalls, work migration
    # ------------------------------------------------------------------ #
    def fail_replica(self, index: int, *, migrate: bool = True):
        """Kill replica ``index`` instantly (crash fault).

        The replica transitions to the terminal FAILED state from wherever
        it was (cold starts are cancelled, draining is cut short) and every
        event its engine had pending in the simulator — iteration
        completions above all — is bulk-cancelled: a dead replica finishes
        nothing.  With ``migrate=True`` all its work (local queue, admitted
        requests waiting on adapters or not yet started, and started
        requests, replayed from scratch) is re-dispatched through the
        normal admission/SLO path with ``migrations``/``retry_count``
        accounting.  ``migrate=False`` strands everything as ``lost`` —
        the no-recovery baseline.  Idempotent on failed/retired replicas.
        Returns the handle.
        """
        handle = self.handles[index]
        if handle.is_retired or handle.is_failed:
            return handle
        now = self._now()
        sim = self._simulator()
        if handle.pending_event is not None:
            if sim is not None:
                sim.cancel(handle.pending_event)
            handle.pending_event = None
        handle.fail(now)
        self.stats.failures += 1
        self._log_transition(handle)
        engine = self.engines[index]
        if sim is not None:
            sim.cancel_if(
                lambda event: getattr(event.callback, "__self__", None)
                is engine)
        recoverable, lost = engine.fail(migrate=migrate)
        self._resync_load(index)  # crash evacuation bypassed submit/finish
        for request in lost:
            request.lost = True
            self._lane_for(request).book.lost += 1
        self.stats.lost += len(lost)
        self._recompute_weights()
        self._migrate(recoverable, index)
        return handle

    def stall_replica(self, index: int, duration: float):
        """Transient stall: replica ``index`` accepts nothing for
        ``duration`` seconds.

        Models an admission-path outage (dispatcher link flap, control-plane
        hiccup), not a crash: in-flight work keeps serving and nothing is
        lost — the replica just leaves the dispatch set, and when the window
        closes it rejoins and absorbs queued work immediately.  Overlapping
        stalls extend the window to the latest deadline.  No-op on replicas
        that are not currently serving.  Returns the handle.
        """
        if duration <= 0:
            raise ValueError(f"stall duration must be > 0, got {duration}")
        handle = self.handles[index]
        if not handle.is_active:
            return handle
        sim = self._simulator()
        if sim is None:
            raise ValueError(
                "transient stalls need a simulated clock: pass sim= to the "
                "cluster or use engines exposing .sim")
        now = self._now()
        if not handle.stalled:
            handle.stalled = True
            self.stats.stalls += 1
            self.lifecycle_log.append((now, handle.index, "stalled"))
            if self._tracer is not None:
                self._tracer.instant(
                    "lifecycle", now,
                    self._replica_tid_base + handle.index,
                    replica=handle.index, state="stalled")
            self._refresh_eligible()
        self._stall_until[index] = max(
            self._stall_until.get(index, 0.0), now + duration)
        sim.schedule(duration, self._end_stall, handle)
        return handle

    def _end_stall(self, handle) -> None:
        if not handle.stalled:
            return  # already cleared (e.g. the replica failed mid-stall)
        if self._now() < self._stall_until.get(handle.index, 0.0):
            return  # a longer overlapping stall still holds the replica
        handle.stalled = False
        self.lifecycle_log.append(
            (self._now(), handle.index, handle.state.value))
        if self._tracer is not None:
            self._tracer.instant(
                "lifecycle", self._now(),
                self._replica_tid_base + handle.index,
                replica=handle.index, state=handle.state.value)
        self._refresh_eligible()
        self._drain()  # the survivor can absorb queued work immediately
        self._notify_capacity()

    def _migrate(self, requests, from_index: int) -> None:
        """Re-offer evacuated requests to the dispatcher, in evacuation
        order, through the normal admission path — a migrated request can
        route anywhere, wait in the global queue, or be shed by the SLO
        policy like any fresh arrival (its clock never resets: TTFT still
        counts from the original ``arrival_time``)."""
        now = self._now()
        for request in requests:
            # Rebound, not appended to: the default is an empty tuple.
            request.migrated_at = [*request.migrated_at, now]
            self.stats.migrations += 1
            self.migration_log.append(dict(
                time=now, request_id=request.request_id,
                from_replica=from_index, retry=request.retry_count))
            if self._tracer is not None:
                self._tracer.instant(
                    "migrate", now, self._trace_tid,
                    request_id=request.request_id,
                    from_replica=from_index, retry=request.retry_count)
            self.dispatch(request)

    def _activate(self, handle) -> None:
        if handle.is_retired:
            return  # provisioning cancelled by a scale-in
        handle.pending_event = None
        handle.activate(self._now())
        self._log_transition(handle)
        self._recompute_weights()
        self._drain()  # the newcomer can absorb queued work immediately
        self._notify_capacity()

    def _retire(self, handle) -> None:
        handle.retire(self._now())
        self._log_transition(handle)
        self._recompute_weights()

    def _log_transition(self, handle) -> None:
        self.lifecycle_log.append(
            (self._now(), handle.index, handle.state.value))
        if self._tracer is not None:
            self._tracer.instant(
                "lifecycle", self._now(),
                self._replica_tid_base + handle.index,
                replica=handle.index, state=handle.state.value)
        self._refresh_eligible()

    def active_indices(self) -> list:
        """Engine indices currently in the dispatch set."""
        return list(self._active_cache)

    def serving_indices(self) -> list:
        """Engine indices currently serving work (ACTIVE or DRAINING,
        ascending) — the autoscaler's throughput denominator, cached at
        each lifecycle transition like :meth:`active_indices`."""
        return list(self._serving_cache)

    def active_count(self) -> int:
        return self._n_active

    def fleet_size(self) -> int:
        """Replicas counted against the autoscaler's *floor*: provisioning
        and active (draining replicas are already on their way out and must
        not satisfy ``min_replicas``)."""
        return self._n_in_fleet

    def holding_count(self) -> int:
        """Replicas currently holding a GPU: everything not yet retired or
        failed, draining included — the count the autoscaler's
        ``max_replicas`` ceiling and peak-fleet accounting must bound, since
        a draining replica is still being billed until its last finish (a
        failed replica's GPU is gone the moment it dies)."""
        return self._n_holding

    def failed_count(self) -> int:
        """Replicas in the terminal FAILED state (crash faults), counted at
        each lifecycle transition — the self-healing autoscaler reads this
        every tick, so it must not cost a fleet sweep."""
        return self._n_failed

    def has_pending_work(self) -> bool:
        """True while any request is in flight on a live replica or waiting
        in any cluster lane — the autoscaler's keep-ticking guard.  O(1)
        via the cluster-wide in-flight counter (retired replicas drained to
        zero and failed ones were evacuated, so the fleet total *is* the
        live total)."""
        return self._total_inflight > 0 or self.queue_len() > 0

    def total_in_flight(self) -> int:
        """Requests currently in flight across every live replica — the
        region router's spill-target load probe.  O(1) via the cluster-wide
        counter."""
        return self._total_inflight

    # ------------------------------------------------------------------ #
    # Observability hooks (see repro.obs)
    # ------------------------------------------------------------------ #
    def attach_tracer(self, tracer, shard: int = 0) -> None:
        """Attach a :class:`repro.obs.Tracer` to this dispatcher and its
        engines (current fleet and any replica provisioned later).

        ``shard`` places the cluster's tracks in a region's layout:
        dispatcher shard ``s`` gets tid ``s + 1`` and its replicas tids
        ``1000 * (s + 1) + index``.  Attaching records nothing by itself
        and schedules no simulator events, so an attached run's
        ``summary()`` is identical to a detached one.
        """
        from repro.obs.tracer import dispatcher_tid, replica_tid
        self._tracer = tracer
        self._trace_shard = shard
        self._trace_tid = dispatcher_tid(shard)
        self._replica_tid_base = replica_tid(shard, 0)
        tracer.register_track(self._trace_tid, f"s{shard}/dispatcher")
        for handle in self.handles:
            self._attach_engine_tracer(handle.engine, handle.index)

    def _attach_engine_tracer(self, engine, index: int) -> None:
        tid = self._replica_tid_base + index
        self._tracer.register_track(
            tid, f"s{self._trace_shard}/replica{index}")
        engine._tracer = self._tracer
        engine._trace_tid = tid

    def attach_metrics(self, registry, prefix: str = "") -> None:
        """Register this cluster's standard gauges on ``registry``.

        All gauges are read-only probes over state the cluster already
        maintains (O(1) caches where the hot path has them); sampling
        them cannot perturb the run.  ``prefix`` namespaces the metric
        names (a region prefixes per shard: ``s0_``, ``s1_``, ...).
        """
        self._metrics = registry
        self._metrics_prefix = prefix
        self._metrics_ttft = registry.histogram(prefix + "ttft")
        registry.gauge(prefix + "queue_depth", self.queue_len)
        registry.gauge(prefix + "in_flight", self.total_in_flight)
        registry.gauge(prefix + "active_replicas", self.active_count)
        registry.gauge(prefix + "finished_total",
                       lambda: self.stats.finishes)
        registry.gauge(prefix + "shed_total", lambda: self.stats.shed)
        registry.gauge(prefix + "cache_hit_rate", self._hit_rate_metric)
        registry.gauge(prefix + "gpu_used_bytes", self._gpu_bytes_metric)
        if self._by_tenant:
            registry.gauge(prefix + "lane_backlog", lambda: self._backlog)
            registry.gauge(prefix + "lane_deficit_total", lambda: float(sum(
                self._lanes[key].deficit for key in self._lane_ring)))
        for handle in self.handles:
            self._register_replica_gauge(handle.index)

    def _register_replica_gauge(self, index: int) -> None:
        self._metrics.gauge(
            f"{self._metrics_prefix}replica{index}_in_flight",
            lambda idx=index: float(self._inflight[idx]))

    def _hit_rate_metric(self) -> float:
        """Lookup-weighted aggregate adapter-cache hit rate (0.0 cold)."""
        hits = lookups = 0
        for engine in self.engines:
            stats = getattr(getattr(engine, "adapter_manager", None),
                            "stats", None)
            if stats is None:
                continue
            hits += stats.hits
            lookups += stats.hits + stats.misses + stats.overlapped
        return hits / lookups if lookups else 0.0

    def _gpu_bytes_metric(self) -> float:
        total = 0
        for engine in self.engines:
            gpu = getattr(engine, "gpu", None)
            if gpu is not None:
                total += gpu.used_bytes
        return float(total)

    # ------------------------------------------------------------------ #
    # Region hooks (cross-shard work stealing; see serving.region)
    # ------------------------------------------------------------------ #
    def on_capacity(self, callback) -> None:
        """Register a zero-argument hook fired whenever a capacity-freeing
        event (finish, replica activation, stall end) leaves this cluster
        able to admit immediately (:meth:`can_admit`).  The region router
        uses it to steal queued work from backlogged sibling shards the
        moment this shard has room; a standalone cluster registers nothing
        and pays nothing."""
        self._capacity_callbacks.append(callback)

    def _notify_capacity(self) -> None:
        if self._capacity_callbacks and self.can_admit():
            for callback in self._capacity_callbacks:
                callback()

    def donate_queued(self):
        """Pop the oldest entry of the most backlogged lane (ties to the
        earliest activated; the deprioritized lane only once every other
        lane is empty, mirroring local drain order) for a sibling shard to
        serve, booking the hand-off on the lane's ledger.  Returns the
        ``(request, enqueue_time)`` entry — the timestamp travels so the
        receiving shard stamps the *full* cross-shard queue delay — or
        ``None`` when nothing is waiting."""
        if self._backlog:
            # `_backlog > 0` guarantees some lane is non-empty, so the scan
            # always lands on a donor.
            donor, best = None, 0
            for key in self._lane_ring:
                lane = self._lanes[key]
                if len(lane.entries) > best:
                    donor, best = lane, len(lane.entries)
            entry = donor.entries.popleft()
            self._backlog -= 1
            donor.book.donated += 1
        elif self._low_queue:
            entry = self._low_queue.popleft()
        else:
            return None
        self.stats.donated += 1
        return entry

    def accept_stolen(self, entry) -> int:
        """Admit a queue entry donated by a sibling shard (see
        :meth:`donate_queued`): stamp its accumulated queue delay exactly
        as a local release would, then submit it here.  The caller must
        have checked :meth:`can_admit` first.  Returns the engine index.

        The thief charges its own token bucket for the request's lane (or
        books a borrow) — region-wide, a tenant's quota is the sum of its
        per-shard caps, and stolen work must not launder past it."""
        request, enqueued_at = entry
        self.stats.stolen += 1
        now = self._now()
        delay = now - enqueued_at
        request.dispatch_queue_delay += delay
        self.stats.queue_delays.append(delay)
        if self._tracer is not None:
            # The span lands on the *thief's* dispatcher track: that is
            # where the wait ended and the work ran.
            self._tracer.span("dispatch", enqueued_at, now, self._trace_tid,
                              request.request_id, lane="stolen")
        lane = self._lane_for(request)
        lane.book.stolen += 1
        bucket = lane.bucket
        if bucket is not None and not bucket.try_take(now):
            lane.book.borrowed += 1
        return self._submit(request)

    def replica_seconds(self, now: Optional[float] = None) -> float:
        """Total resource-time consumed by the fleet so far, in
        replica-seconds (each replica counts from provisioning start to
        retirement; see ``ReplicaHandle.replica_seconds``)."""
        if now is None:
            now = self._now()
        return sum(handle.replica_seconds(now) for handle in self.handles)

    # ------------------------------------------------------------------ #
    # Routing policies
    # ------------------------------------------------------------------ #
    def _index_active(self) -> bool:
        """True when the count heap provably picks what the
        capability-normalized scan in :meth:`_pick` would, so `_submit` may
        peek it: the policy is ``least_loaded``, every capability weight is
        1.0 and the fleet shares one batch cap.  Dividing a counter by
        exactly 1.0 is the identity, so integer counts and the heap
        tie-break ``(load, index)`` reproduce the scan's floats and
        first-minimum ties exactly; any heterogeneity (mixed specs,
        estimator-driven weights, mixed batch caps) falls back to the scan.
        """
        return (self._count_heap is not None and self._uniform_caps
                and self._uniform_batch_cap)

    def _push_count(self, idx: int) -> None:
        """Record engine ``idx``'s new request count in the count heap,
        compacting (rebuild over the eligible set) once lazy deletions have
        let the heap grow past ~4x the fleet — O(1) amortized."""
        heap = self._count_heap
        assert heap is not None
        if len(heap) >= self._heap_limit:
            inflight = self._inflight
            heap.rebuild((inflight[i], i) for i in self._eligible)
        else:
            heap.push(self._inflight[idx], idx)

    def _pick(self, request, candidates: list) -> int:
        """Scan ``candidates`` (ascending replica indices) for the pick of
        every policy but a heap-backed ``least_loaded``
        (``tests/test_dispatch_index.py`` keeps a copy of it that reads
        request counts from the engines, as its oracle).

        Loads are read live and divided by each replica's relative
        capability, which turns raw backlog into utilization: a replica
        twice as fast at the same queue length is half as loaded, so every
        load-following policy routes correctly across a mixed-spec fleet.
        ``token_weighted`` reads the engines' running token sums, every
        other policy the dispatcher's request counts.  Round-robin walks
        ``_rr_next`` to the next candidate; p2c draws two candidate
        positions from the dispatch RNG and keeps the less loaded (the
        lower index on ties); the rest keep the first minimum in candidate
        order.  A single candidate returns at once: no RNG draw, no
        round-robin step.
        """
        if len(candidates) == 1:
            return candidates[0]
        policy = self.policy
        if policy == "round_robin":
            n = len(self.engines)
            members = set(candidates)
            for _ in range(n):
                idx = self._rr_next
                self._rr_next = (idx + 1) % n
                if idx in members:
                    return idx
            raise AssertionError("unreachable: candidates is non-empty")
        cap = self._capability
        inflight = self._inflight
        if policy == "p2c":
            a, b = self._rng.choice(len(candidates), size=2, replace=False)
            i, j = candidates[int(a)], candidates[int(b)]
            load_i, load_j = inflight[i] / cap[i], inflight[j] / cap[j]
            if load_i == load_j:
                return min(i, j)
            return i if load_i < load_j else j
        engines = self.engines
        if policy == "token_weighted":
            loads = [engines[i].in_flight_token_load() / cap[i]
                     for i in candidates]
        else:
            loads = [inflight[i] / cap[i] for i in candidates]
        adapter_id = request.adapter_id
        if adapter_id is not None and policy in (
                "adapter_affinity", "bounded_affinity"):
            resident = [
                k for k, i in enumerate(candidates)
                if engines[i].adapter_manager.is_resident(adapter_id)
            ]
            if resident:
                best = min(resident, key=loads.__getitem__)
                if policy == "adapter_affinity":
                    return candidates[best]
                bound = self.spill_factor * max(
                    1.0, sum(loads) / len(loads))
                if loads[best] <= bound:
                    return candidates[best]
                self.stats.spills += 1  # affine replica too hot: spill to JSQ
        return candidates[loads.index(min(loads))]
