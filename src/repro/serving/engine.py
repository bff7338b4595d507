"""The continuous-batching serving engine.

One engine owns one model replica: a GPU (or TP group), a host link, an
adapter manager and a scheduling policy.  It implements iteration-level
scheduling exactly as §2 describes: on every iteration the batch is updated —
finished requests leave, the policy admits new ones — and the iteration's
latency is computed by the calibrated cost model from the batch composition
(prefill work + decode step).

Key behaviours reproduced from the paper:

* Admission reserves KV-cache memory; the Cache Manager is asked to evict
  idle adapters when the reservation does not fit (§4.2.1 "dynamic cache
  sizing" — the cache shrinks exactly when serving state needs bytes).
* An admitted request whose adapter is still in flight waits in a
  ``pending_load`` set; the transfer time it waits is the *adapter loading
  latency on the critical path* (Figure 14).
* Optional chunked prefill (Sarathi-style): a per-iteration prefill-token
  budget, with decode always included (the Figure 8 "Chunk-Prefill" baseline).
* Opportunistic-bypass squashing (§4.3.3): the scheduler may remove a
  running request, rolling back all progress, to re-admit a bypassed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import GB, GpuDevice
from repro.hardware.pcie import PcieLink
from repro.llm.costmodel import CostModel
from repro.llm.model import ModelSpec
from repro.predictor.output_length import OutputLengthPredictor
from repro.serving.admission import AdmissionContext, AdmitResult
from repro.serving.adapter_manager import AdapterManagerBase, AdapterState
from repro.serving.schedulers import Scheduler
from repro.sim.simulator import Simulator
from repro.workload.request import Request, RequestState


#: Memory set aside for activations/workspace, never usable by KV or cache.
ACTIVATION_RESERVE_BYTES = 1 * GB
#: Per-iteration cap on *whole-request* prefill tokens (vLLM/S-LoRA's
#: ``max_num_batched_tokens``).  Requests past the budget stay admitted but
#: start prefill in a later iteration, in batch order — this is what makes
#: admission order matter and produces FIFO's head-of-line blocking.  An
#: oversized request runs alone.
PREFILL_TOKEN_BUDGET = 4096


def _fresh_token_load(request: Request) -> int:
    """A request's token load before any progress: its whole prompt plus
    its predicted output (the true length when there is no prediction)."""
    return request.input_tokens + (
        request.predicted_output_tokens or request.output_tokens)


@dataclass
class EngineConfig:
    """Engine-level knobs (shared by every system variant)."""

    #: Cap on concurrently-admitted requests (running + waiting on adapters).
    #: High enough that GPU memory — translated into scheduling tokens — is
    #: the binding resource, as in the paper's testbed.
    max_batch_size: int = 256
    #: Per-iteration prefill token budget with request *splitting* (Sarathi
    #: chunked prefill); ``None`` disables splitting.  When set, it replaces
    #: :data:`PREFILL_TOKEN_BUDGET` as the iteration budget.
    chunk_size: Optional[int] = None
    #: Interval of GPU-memory telemetry samples; ``None`` disables sampling.
    memory_telemetry_interval: Optional[float] = None
    #: Effective rate at which adapter copies steal engine time.  Host-to-GPU
    #: adapter loads in S-LoRA synchronize with the execution stream, so a
    #: transfer that completes while the engine is busy delays the pipeline by
    #: roughly ``bytes / load_stall_bandwidth`` (stream syncs + paged copies
    #: make this slower than the raw link).  This is the §3.2 mechanism that
    #: makes frequent adapter loading degrade *throughput*, not just TTFT.
    #: ``None`` disables stall accounting (ideal fully-async copies).
    #: Calibrated so the S-LoRA baseline's SLO-crossing load sits ~1.5x below
    #: Chameleon's, the paper's Figure 11 headline (see abl_load_stall for
    #: the sensitivity of the result to this constant).
    load_stall_bandwidth: Optional[float] = 2.0 * GB


@dataclass
class EngineStats:
    """Run counters the experiments report."""

    iterations: int = 0
    busy_time: float = 0.0
    stall_time: float = 0.0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    squashes: int = 0
    admissions: int = 0


class ServingEngine:
    """One LLM replica with continuous batching (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        gpu: GpuDevice,
        link: PcieLink,
        model: ModelSpec,
        cost_model: CostModel,
        registry: AdapterRegistry,
        scheduler: Scheduler,
        adapter_manager: AdapterManagerBase,
        predictor: Optional[OutputLengthPredictor] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.sim = sim
        self.gpu = gpu
        self.link = link
        self.model = model
        self.cost_model = cost_model
        self.registry = registry
        self.scheduler = scheduler
        self.adapter_manager = adapter_manager
        self.predictor = predictor
        # A fresh config per engine: a shared default instance would alias
        # mutable knobs across every engine in a cluster.
        self.config = config if config is not None else EngineConfig()
        self.stats = EngineStats()

        #: The batch, in admission order: requests past prefill, then the
        #: ones still prefilling.  Prefill completes front-first (every plan
        #: is a prefix of ``_prefilling``), so the decode set is
        #: ``_decoding`` itself and the two never interleave.
        #:
        #: Every iteration emits one token for every decoding request, so a
        #: request's future is fixed at its first token: it finishes
        #: ``output_tokens - 1`` iterations later, and its predicted output
        #: (its share of the token load) runs out ``predicted - 1``
        #: iterations later.  Iteration ends are therefore counted as steps:
        #: ``_step_times`` holds each one's end time, and ``_decoding`` maps
        #: each decoding request to the step of its first token.  The
        #: engine acts on a decoding request only at its finish step,
        #: through ``_finish_at`` (step -> requests finishing then, in
        #: decode order), and counts the requests still short of their
        #: prediction in ``_n_short``, less ``_expire_at`` (step -> how many
        #: reach their prediction then).  Its ``token_steps`` is bound to
        #: ``_step_times`` at its first token, and :meth:`_catch_up` brings
        #: ``tokens_generated``, and with it the ``token_times`` view, up
        #: to date (see ``Request``).
        self._decoding: dict[Request, int] = {}
        self._prefilling: list[Request] = []
        self._step_times: list[float] = []
        self._finish_at: dict[int, list[Request]] = {}
        self._expire_at: dict[int, int] = {}
        self._n_short = 0
        self._pending_load: list[Request] = []
        #: LoRA rank and size in bytes by adapter id (the registry is
        #: read-only and its ids are dense ``0..n-1``), and the model's KV
        #: bytes per token.
        self._rank_of: list[int] = [adapter.rank for adapter in registry]
        self._size_of: list[int] = [adapter.size_bytes for adapter in registry]
        self._kv_bytes_per_token: int = model.kv_bytes_per_token
        #: Sums kept up to date wherever the batch changes, so neither the
        #: load probe nor an iteration start walks the batch:
        #: :meth:`in_flight_token_load`, and the decode set's context
        #: tokens, LoRA ranks and LoRA count.
        self._token_load = 0
        self._decode_ctx_tokens = 0
        self._decode_rank_sum = 0
        self._decode_lora_count = 0
        self._finish_callbacks: list = []
        self._iteration_event = None
        self._last_decode_step_time = 0.02  # seed for release-time estimates
        self._pending_stall = 0.0           # engine time owed to adapter copies
        self.all_requests: list[Request] = []
        self.failed = False                 # crashed by fault injection
        #: Observability hook (see repro.obs): ``None`` means tracing is
        #: off and every hook site is a single attribute check.  The
        #: cluster's ``attach_tracer`` sets both after construction.
        self._tracer = None
        self._trace_tid = 0
        #: Degrade-fault service-rate multiplier (1.0 = healthy; 0.5 = every
        #: iteration takes twice as long).  Exactly 1.0 leaves the iteration
        #: cost path untouched, bit for bit.
        self._rate_multiplier = 1.0

        # Static reservations: base weights + activation workspace.
        self.gpu.reserve("weights", model.weight_bytes)
        self.gpu.reserve("activations", ACTIVATION_RESERVE_BYTES)
        #: Whether iteration ends sample GPU memory (telemetry on).
        self._sample_memory = self.config.memory_telemetry_interval is not None
        if self._sample_memory:
            self.gpu.enable_telemetry(self.config.memory_telemetry_interval)
        #: The scheduler's view of this engine, passed to every ``select``.
        self._admission = AdmissionContext(self)

        self.adapter_manager.on_ready(self._on_adapter_ready)

    # ------------------------------------------------------------------ #
    # Capacity views
    # ------------------------------------------------------------------ #
    @property
    def total_token_capacity(self) -> int:
        """Scheduling tokens available system-wide (§4.3.5's Tok_total)."""
        usable = self.gpu.capacity - self.model.weight_bytes - ACTIVATION_RESERVE_BYTES
        return max(0, usable // self._kv_bytes_per_token)

    def in_flight_count(self) -> int:
        return (len(self._decoding) + len(self._prefilling)
                + len(self._pending_load) + self.scheduler.queue_len())

    def capability(self) -> float:
        """Relative serving throughput of this replica (arbitrary units).

        The geometric mean of peak compute (bounds prefill) and HBM
        bandwidth (bounds decode), scaled by the TP compute speedup — a
        single scalar a heterogeneity-aware dispatcher can use to normalize
        load probes across mixed GPU specs.  Only ratios between replicas
        matter; the cluster renormalizes to mean 1.0.
        """
        spec = self.gpu.spec
        speedup = getattr(self.gpu, "compute_speedup", 1.0)
        return float(
            (spec.peak_tflops * spec.mem_bandwidth_bytes) ** 0.5) * speedup

    def in_flight_token_load(self) -> int:
        """In-flight work in *tokens*: remaining prefill plus predicted
        remaining decode across running, loading and locally-queued requests.

        Token-weighted dispatch uses this instead of :meth:`in_flight_count`
        so a replica holding a few huge requests is not mistaken for idle.
        Falls back to the true output length when no prediction exists.
        The sum is kept up to date wherever a request enters, advances in
        or leaves the engine, so reading it is O(1).
        """
        return self._token_load

    def on_finish(self, callback) -> None:
        """Register a hook fired after each request completes.

        The data-parallel cluster uses this for pull-based dispatch: a finish
        event frees batch capacity, so the global queue can drain into it.
        """
        self._finish_callbacks.append(callback)

    def request_rank(self, request: Request) -> Optional[int]:
        if request.adapter_id is None:
            return None
        return self._rank_of[request.adapter_id]

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> None:
        """Accept a request at the current simulated time.

        A request for an adapter id outside the registry raises
        ``KeyError`` before anything changes.
        """
        if self.failed:
            raise RuntimeError("cannot submit to a FAILED engine")
        adapter_id = request.adapter_id
        if adapter_id is not None and not 0 <= adapter_id < len(self._rank_of):
            raise KeyError(f"request {request.request_id} names unknown "
                           f"adapter id {adapter_id}")
        now = self.sim.now
        request.enqueue_time = now
        request.state = RequestState.QUEUED
        predicted = request.predicted_output_tokens
        if self.predictor is not None and predicted is None:
            self.predictor.annotate(request)
            predicted = request.predicted_output_tokens
        # `_fresh_token_load`, inline.
        self._token_load += request.input_tokens + (
            predicted or request.output_tokens)
        self.all_requests.append(request)
        self.scheduler.enqueue(request, now)
        self.adapter_manager.on_request_arrival(request)
        if self._iteration_event is None:  # `_kick`, inline
            self._start_iteration()

    # ------------------------------------------------------------------ #
    # Admission (called through AdmissionContext.try_admit)
    # ------------------------------------------------------------------ #
    def admit(self, request: Request) -> AdmitResult:
        if request.state not in (RequestState.QUEUED, RequestState.CREATED):
            raise RuntimeError(f"request {request.request_id} is not admissible ({request.state})")
        in_batch = (len(self._decoding) + len(self._prefilling)
                    + len(self._pending_load))
        if in_batch >= self.config.max_batch_size:
            return AdmitResult.BATCH_FULL

        kv_bytes = (request.input_tokens + request.output_tokens) * self._kv_bytes_per_token
        adapter_id = request.adapter_id
        adapter_bytes_needed = 0
        if adapter_id is not None:
            entry_state = self.adapter_manager.entry(adapter_id).state
            if entry_state is AdapterState.MISSING:
                adapter_bytes_needed = self._size_of[adapter_id]

        needed = kv_bytes + adapter_bytes_needed
        if self.gpu.free_bytes < needed:
            exclude = {adapter_id} if adapter_id is not None else None
            self.adapter_manager.make_room(needed, exclude=exclude)
            free = self.gpu.free_bytes
            if free < needed:
                if free < kv_bytes:
                    return AdmitResult.NO_MEMORY
                return AdmitResult.NO_ADAPTER_ROOM

        self.gpu.reserve("kv", kv_bytes)
        request.kv_reserved_bytes = kv_bytes
        if request.admit_time is None:
            request.admit_time = self.sim.now
        self.stats.admissions += 1

        if adapter_id is not None:
            status = self.adapter_manager.acquire(adapter_id)
            if status is AdapterState.LOADING:
                request.state = RequestState.LOADING
                self._pending_load.append(request)
                return AdmitResult.ADMITTED
        self._begin_prefill(request)
        return AdmitResult.ADMITTED

    def _begin_prefill(self, request: Request) -> None:
        now = self.sim.now
        request.state = RequestState.PREFILL
        # prefill_start_time is stamped when the first prefill chunk is
        # actually planned (the per-iteration budget can defer it).
        if request.adapter_ready_time is None:
            request.adapter_ready_time = now
        self._prefilling.append(request)

    # ------------------------------------------------------------------ #
    # Squashing (§4.3.3)
    # ------------------------------------------------------------------ #
    def squash(self, request: Request) -> None:
        """Abort a running/loading request and roll back all its progress."""
        predicted = request.predicted_output_tokens or request.output_tokens
        first_step = self._decoding.pop(request, None)
        if first_step is not None:
            self._catch_up(request, first_step)
            self._finish_at[first_step + request.output_tokens - 1].remove(
                request)
            expiry = first_step + predicted - 1
            if expiry >= len(self._step_times):  # still short of it
                self._n_short -= 1
                self._expire_at[expiry] -= 1
            self._decode_ctx_tokens -= request.context_tokens
            if request.adapter_id is not None:
                self._decode_rank_sum -= self._rank_of[request.adapter_id]
                self._decode_lora_count -= 1
        elif request in self._prefilling:
            self._prefilling.remove(request)
        elif request in self._pending_load:
            self._pending_load.remove(request)
        else:
            raise RuntimeError(f"cannot squash request {request.request_id}: not in flight")
        held = (request.remaining_prefill_tokens
                + max(0, predicted - request.tokens_generated))
        self._rollback(request)
        self._token_load += _fresh_token_load(request) - held
        request.squash_count += 1
        request.state = RequestState.QUEUED
        self.stats.squashes += 1
        self.scheduler.requeue_front(request, self.sim.now)

    def _rollback(self, request: Request) -> None:
        """Release a request's resources and wipe its serving progress."""
        self.gpu.release("kv", request.kv_reserved_bytes)
        request.kv_reserved_bytes = 0
        if request.adapter_id is not None:
            self.adapter_manager.release(request.adapter_id)
        request.tokens_generated = 0
        request.prefill_done_tokens = 0
        request.token_steps = None
        request.first_token_time = None
        request.prefill_start_time = None
        request.adapter_ready_time = None

    # ------------------------------------------------------------------ #
    # Faults: crash evacuation and degrade multipliers
    # ------------------------------------------------------------------ #
    def set_rate_multiplier(self, multiplier: float) -> None:
        """Degrade (or recover) the replica's service rate.

        ``multiplier`` scales throughput: 0.5 makes every iteration take
        twice as long (thermal throttling, a noisy neighbour, a half-broken
        NVLink).  The :class:`ObservedCapabilityEstimator` sees the slower
        finish rate and shifts routing weight away — that convergence is the
        contract the ``degrade`` fault relies on.
        """
        if multiplier <= 0:
            raise ValueError(f"rate multiplier must be > 0, got {multiplier}")
        self._rate_multiplier = multiplier

    def fail(self, *, migrate: bool = True) -> tuple[list, list]:
        """Crash this replica; partition its work into (recoverable, lost).

        The engine stops dead: the in-flight iteration is aborted (its
        callback is cancelled by the cluster via ``Simulator.cancel_if``)
        and no future submission or adapter-ready event does anything.

        With ``migrate=True`` all its work is rolled back to a fresh
        pre-submission state and *removed from this engine's accounting*
        (the cluster re-dispatches it, so it must not be counted twice), in
        this order: admitted requests still waiting on adapter loads,
        admitted requests whose prefill never started, requests already
        being served (prefill begun or tokens emitted: the client-retry
        model, where partial progress is discarded and the request replays
        from scratch), then the local scheduler queue.  ``migrate=False``
        strands everything (the no-recovery baseline): marked ``lost``,
        kept in ``all_requests`` with timelines frozen at the crash.
        """
        if self.failed:
            return [], []
        self.failed = True
        if self._iteration_event is not None:
            self.sim.cancel(self._iteration_event)
            self._iteration_event = None
        self._pending_stall = 0.0
        queued = self.scheduler.drain()
        loading = list(self._pending_load)
        self._pending_load.clear()
        for request, first_step in self._decoding.items():
            # A lost request keeps the timeline it has at the crash.
            self._catch_up(request, first_step)
        started, unstarted = [], []
        for request in [*self._decoding, *self._prefilling]:
            if request.prefill_start_time is None and \
                    request.tokens_generated == 0:
                unstarted.append(request)
            else:
                started.append(request)
        self._decoding.clear()
        self._prefilling.clear()
        self._finish_at.clear()
        self._expire_at.clear()
        self._n_short = 0
        self._token_load = 0
        self._decode_ctx_tokens = 0
        self._decode_rank_sum = 0
        self._decode_lora_count = 0
        admitted = loading + unstarted + started
        work = admitted + queued
        if not migrate:
            for request in work:
                request.lost = True
            return [], work
        for request in admitted:  # holds KV/adapter; queued do not
            self._rollback(request)
        for request in work:
            request.state = RequestState.CREATED
            request.enqueue_time = None
            request.admit_time = None
        self._forget(work)
        return work, []

    def _forget(self, requests: list) -> None:
        """Drop evacuated requests from this engine's accounting in one
        pass (they are re-counted wherever they land next; a per-request
        ``list.remove`` would scan the whole service history each time)."""
        if not requests:
            return
        evacuated = {id(r) for r in requests}
        self.all_requests = [
            r for r in self.all_requests if id(r) not in evacuated]

    def evacuate_unstarted(self) -> list:
        """Hand back work that has not started serving (drain migration).

        The local scheduler queue plus admitted requests still waiting on
        adapter loads or on their first prefill token are rolled back to a
        fresh pre-submission state and removed from this engine's
        accounting; started requests stay and finish normally.  Unlike
        :meth:`fail`, the engine remains alive — this is the voluntary
        half of work migration, used when a draining replica should not
        make its queued work wait out the drain.
        """
        queued = self.scheduler.drain()
        loading = list(self._pending_load)
        self._pending_load.clear()
        # Requests past prefill have started, so only ``_prefilling`` can
        # hold unstarted ones.
        kept, unstarted = [], []
        for request in self._prefilling:
            if request.prefill_start_time is None and \
                    request.tokens_generated == 0:
                unstarted.append(request)
            else:
                kept.append(request)
        self._prefilling = kept
        for request in loading + unstarted:
            self._rollback(request)
        evacuated = loading + unstarted + queued
        for request in evacuated:  # none has progress to subtract
            self._token_load -= _fresh_token_load(request)
            request.state = RequestState.CREATED
            request.enqueue_time = None
            request.admit_time = None
        self._forget(evacuated)
        return evacuated

    # ------------------------------------------------------------------ #
    # Scheduler-visible estimates
    # ------------------------------------------------------------------ #
    def estimate_service_time(self, request: Request) -> float:
        predicted = request.predicted_output_tokens
        if predicted is None:
            predicted = request.output_tokens
        return self.cost_model.estimate_service_time(
            request.input_tokens, predicted, self.request_rank(request)
        )

    def estimate_earliest_release(self) -> float:
        """Predicted seconds until some running request frees its memory."""
        best = float("inf")
        for request, first_step in self._decoding.items():
            self._catch_up(request, first_step)
        for request in [*self._decoding, *self._prefilling]:
            predicted = request.predicted_output_tokens or request.output_tokens
            remaining_tokens = max(1, predicted - request.tokens_generated)
            est = remaining_tokens * self._last_decode_step_time
            if request.remaining_prefill_tokens > 0:
                est += self.cost_model.prefill_time(
                    request.remaining_prefill_tokens, self.request_rank(request)
                )
            best = min(best, est)
        return best

    # ------------------------------------------------------------------ #
    # The iteration loop
    # ------------------------------------------------------------------ #
    def _kick(self) -> None:
        if self._iteration_event is None and not self.failed:
            self._start_iteration()

    def _on_adapter_ready(self, adapter_id: int) -> None:
        if self.failed:
            return  # a transfer landing on a dead replica wakes nothing
        # A copy that lands while the engine is executing steals pipeline
        # time (stream synchronization); copies finishing into an idle engine
        # are free.  The debt is charged to the next iteration.
        stall_bw = self.config.load_stall_bandwidth
        if stall_bw is not None and self._iteration_event is not None:
            self._pending_stall += self._size_of[adapter_id] / stall_bw
        if self._pending_load:
            self._promote_ready()
        self._kick()

    def _promote_ready(self) -> None:
        still_waiting = []
        for request in self._pending_load:
            assert request.adapter_id is not None
            if self.adapter_manager.is_resident(request.adapter_id):
                now = self.sim.now
                admitted_at = request.admit_time if request.admit_time is not None else now
                request.adapter_load_critical_path = now - admitted_at
                self._begin_prefill(request)
            else:
                still_waiting.append(request)
        self._pending_load = still_waiting

    def _start_iteration(self) -> None:
        if self._iteration_event is not None:
            return
        now = self.sim.now
        self.scheduler.on_schedule(now)
        self.adapter_manager.set_queued_needed(self.scheduler.queued_adapter_ids())
        self.scheduler.select(self._admission)
        if self._pending_load:
            self._promote_ready()

        prefill_plan = self._build_prefill_plan()
        n_decode = len(self._decoding)
        if not prefill_plan and not n_decode:
            return  # idle; an arrival or adapter-ready event will wake us

        # One pass over the plan: stamp each request's first prefill chunk
        # and collect the cost model's (tokens, rank) work and token total.
        rank_of = self._rank_of
        prefill_work: list[tuple[int, Optional[int]]] = []
        prefill_tokens = 0
        for request, tokens in prefill_plan:
            if request.prefill_start_time is None:
                request.prefill_start_time = now
            adapter_id = request.adapter_id
            prefill_work.append(
                (tokens, None if adapter_id is None else rank_of[adapter_id]))
            prefill_tokens += tokens
        cost_model = self.cost_model
        decode_time = 0.0
        if n_decode:
            decode_time = cost_model.decode_step_time(
                n_decode, self._decode_ctx_tokens, self._decode_rank_sum,
                self._decode_lora_count)
            self._last_decode_step_time = decode_time
        dt = cost_model.iteration_time(prefill_work, decode_time)
        if self._pending_stall > 0.0:
            dt += self._pending_stall
            self.stats.stall_time += self._pending_stall
            self._pending_stall = 0.0
        if self._rate_multiplier != 1.0:  # degrade fault: serve slower
            dt /= self._rate_multiplier
        self.stats.iterations += 1
        self.stats.busy_time += dt
        self.stats.prefill_tokens += prefill_tokens
        self.stats.decode_tokens += n_decode
        self._iteration_event = self.sim.schedule(
            dt, self._end_iteration, prefill_plan
        )

    def _build_prefill_plan(self) -> list[tuple[Request, int]]:
        """Choose this iteration's prefill work, in batch-admission order.

        With ``chunk_size`` set, requests are split into chunks under that
        budget (chunked prefill).  Otherwise whole requests are planned
        under :data:`PREFILL_TOKEN_BUDGET`; the first request that does not
        fit stops the scan (strict order — admission order is the priority
        order), and an oversized request is granted a solo iteration.  Either way the
        plan is a prefix of ``_prefilling`` and only its last entry can stop
        short of the request's whole prompt.
        """
        chunked = self.config.chunk_size is not None
        budget = self.config.chunk_size if chunked else PREFILL_TOKEN_BUDGET
        plan: list[tuple[Request, int]] = []
        for request in self._prefilling:
            remaining = request.input_tokens - request.prefill_done_tokens
            if chunked:
                if budget <= 0:
                    break
                take = min(budget, remaining)
                plan.append((request, take))
                budget -= take
            else:
                if remaining <= budget:
                    plan.append((request, remaining))
                    budget -= remaining
                elif not plan:
                    plan.append((request, remaining))  # oversized: run alone
                    budget = 0
                    break
                else:
                    break
        return plan

    def _end_iteration(self, prefill_plan: list) -> None:
        self._iteration_event = None
        now = self.sim.now
        step = len(self._step_times)
        self._step_times.append(now)
        rank_of = self._rank_of
        decoding = self._decoding
        # The decode step: every request in ``_decoding`` (the decode set
        # the iteration was planned with; only an iteration start can
        # squash) emitted a token, and each one still short of its
        # prediction owes one token less.
        load = self._token_load - self._n_short
        self._n_short -= self._expire_at.pop(step, 0)
        ctx_tokens = self._decode_ctx_tokens + len(decoding)
        rank_sum = self._decode_rank_sum
        n_lora = self._decode_lora_count
        finished: list[Request] = []
        promoted: list[Request] = []
        n_prefilled = 0
        for request, tokens in prefill_plan:
            request.prefill_done_tokens += tokens
            load -= tokens
            if request.prefill_done_tokens == request.input_tokens:
                n_prefilled += 1
                request.tokens_generated = 1
                request.first_token_time = now
                request.token_steps = self._step_times
                request.first_token_step = step
                request.state = RequestState.DECODE
                predicted = request.predicted_output_tokens or request.output_tokens
                if request.output_tokens == 1:
                    finished.append(request)
                    load -= max(0, predicted)
                else:
                    promoted.append(request)
                    if predicted > 0:
                        load -= 1
        done = self._finish_at.pop(step, ())
        for request in done:
            first_step = decoding.pop(request)
            # `_catch_up`, inline: one token per step since its first.
            request.tokens_generated = step + 1 - first_step
            ctx_tokens -= request.input_tokens + request.tokens_generated
            if request.adapter_id is not None:
                rank_sum -= rank_of[request.adapter_id]
                n_lora -= 1
            predicted = request.predicted_output_tokens or request.output_tokens
            expiry = first_step + predicted - 1
            if expiry > step:  # finished short of its prediction
                self._n_short -= 1
                self._expire_at[expiry] -= 1
                load -= expiry - step
        finished += done
        for request in finished:
            self._finish(request, now)
        if n_prefilled:
            # The completed prefills are the front of ``_prefilling``; the
            # survivors join the back of the decode set, which keeps the
            # two in admission order.
            del self._prefilling[:n_prefilled]
            finish_at, expire_at = self._finish_at, self._expire_at
            for request in promoted:
                decoding[request] = step
                finish_at.setdefault(
                    step + request.output_tokens - 1, []).append(request)
                predicted = request.predicted_output_tokens or request.output_tokens
                if predicted > 1:
                    self._n_short += 1
                    expiry = step + predicted - 1
                    expire_at[expiry] = expire_at.get(expiry, 0) + 1
                ctx_tokens += request.input_tokens + request.tokens_generated
                if request.adapter_id is not None:
                    rank_sum += rank_of[request.adapter_id]
                    n_lora += 1
        self._token_load = load
        self._decode_ctx_tokens = ctx_tokens
        self._decode_rank_sum = rank_sum
        self._decode_lora_count = n_lora
        # Fire finish hooks only after every finish of this iteration is
        # finalized: a hook may submit new work (cluster queue drain), which
        # kicks a fresh iteration — doing that mid-loop would let the new
        # iteration capture requests that are finished but not yet removed
        # from the batch, double-finishing them.
        for request in finished:
            for callback in self._finish_callbacks:
                callback(request)
        if self._sample_memory:
            self.gpu.maybe_sample(now)
        self._start_iteration()

    def _catch_up(self, request: Request, first_step: int) -> None:
        """Bring a decoding request's ``tokens_generated`` up to the last
        iteration end: it has emitted one token per step since
        ``first_step``, its first token's step.  Its ``token_times`` view
        is read off ``tokens_generated``, so nothing else moves."""
        request.tokens_generated = len(self._step_times) - first_step

    def _finish(self, request: Request, now: float) -> None:
        """Finalize one completed request.  The caller has removed it from
        the batch and its sums."""
        request.state = RequestState.FINISHED
        request.finish_time = now
        self.gpu.release("kv", request.kv_reserved_bytes)
        request.kv_reserved_bytes = 0
        if request.adapter_id is not None:
            self.adapter_manager.release(request.adapter_id)
        self.scheduler.on_finish(request, now)
        if self._tracer is not None:
            # The request's whole span waterfall (queue, adapter load,
            # prefill/decode, execute) is built here, from its timeline
            # stamps, so even a migrated request lands its spans on the
            # replica that actually finished it.
            self._tracer.record_request(request, self._trace_tid)

    # ------------------------------------------------------------------ #
    def start_memory_sampling(self, horizon: float) -> None:
        """Sample GPU memory now and every ``memory_telemetry_interval``
        seconds up to ``horizon``, busy or idle (a no-op with telemetry
        off; iteration ends sample too)."""
        interval = self.config.memory_telemetry_interval
        if interval is None:
            return

        def _sample() -> None:
            self.gpu.maybe_sample(self.sim.now)
            if self.sim.now + interval <= horizon:
                self.sim.schedule(interval, _sample)

        self.sim.schedule(0.0, _sample)
