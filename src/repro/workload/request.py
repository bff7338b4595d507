"""The inference request and its lifecycle record.

A request carries its ground-truth sizes (the simulator knows the real output
length, like a trace replay does) plus the *predicted* output length that is
all the schedulers are allowed to look at, mirroring the paper's use of a
BERT proxy predictor.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator, Optional


class RequestState(enum.Enum):
    """Lifecycle of a request inside one engine."""

    CREATED = "created"
    QUEUED = "queued"
    LOADING = "loading"      # admitted, waiting for its adapter transfer
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"


class StepView(Sequence[float]):
    """A read-only view of ``steps[start:stop]``.

    A request's tokens come one per engine iteration, so once its first
    token is out they are one contiguous run of its engine's iteration end
    times.  ``Request.token_times`` builds a view of that run on demand: no
    time is copied per request, and no view is kept.  A view compares equal
    to the list it stands for.
    """

    __slots__ = ("steps", "start", "stop")

    def __init__(self, steps: Sequence[float], start: int, stop: int) -> None:
        self.steps = steps
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index: int) -> float:
        n = self.stop - self.start
        if not -n <= index < n:
            raise IndexError("step view index out of range")
        return self.steps[self.start + index % n]

    def __iter__(self) -> Iterator[float]:
        return map(self.steps.__getitem__, range(self.start, self.stop))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, StepView)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"StepView({list(self)!r})"


#: The timeline of every request without tokens, shared.  Its step list is
#: an empty tuple, so nothing can grow it.
_NO_TOKENS = StepView((), 0, 0)


@dataclass(eq=False, slots=True)
class Request:
    """One inference request.

    Requests compare and hash by identity: each object is one request's
    lifecycle, so two requests with equal fields are still two requests.

    A request is the only object its lifecycle keeps unless it migrates:
    its token timeline is built on demand from two slots, and its
    migration stamps are an empty tuple until the first migration.

    Progress contract: ``tokens_generated`` and ``token_times`` are exact
    except while the request is decoding.  Then the engine holds its
    progress (every iteration emits one token for every decoding request,
    so the iteration end times say it all) and the two may lag behind; the
    engine brings ``tokens_generated`` up to date when the request
    finishes, is squashed or is stranded by a crash.  At the first token
    the engine binds ``token_steps`` to its own list of iteration end times
    and ``first_token_step`` to the index of that token's iteration, and
    ``token_times`` reads the :class:`StepView` of ``tokens_generated``
    steps from there.  A request with no tokens (never started, or rolled
    back by a squash) reads one shared empty view over an empty tuple,
    which still compares ``== []``.  A hand-built request may assign a
    list or a view to ``token_times``; that binds the two slots and sets
    ``tokens_generated`` to its length.

    ``migrated_at`` holds the times the request was migrated off a dead
    replica.  It is ``()`` until the first migration, and each migration
    rebinds it to a new list one stamp longer, so ``retry_count`` is its
    length.

    Attributes:
        request_id: Unique id within a trace.
        arrival_time: Simulated arrival timestamp (seconds).
        input_tokens: Prompt length (known on arrival).
        output_tokens: True number of generated tokens (>= 1; unknown to
            schedulers until completion).
        adapter_id: LoRA adapter used, or ``None`` for a base-model request.
        tenant_id: Owning tenant, or ``None`` when the workload has no
            tenant structure.  A region router keyed ``shard_key="tenant"``
            routes on it, pinning each tenant's traffic (and adapter
            residency) to one dispatcher shard.
        slo_class: Service-class name (e.g. ``"gold"``), or ``None`` for the
            anonymous single-class workload.  ``SloPolicy.classes`` maps it
            to a per-class deadline; ``TenantFairnessPolicy`` maps it to a
            dispatch weight.  Unrecognized or absent names fall back to the
            policy's global deadline, so class-labelled traces replay
            unchanged against class-blind policies.
        predicted_output_tokens: The proxy predictor's estimate, filled in at
            submission time.
    """

    request_id: int
    arrival_time: float
    input_tokens: int
    output_tokens: int
    adapter_id: Optional[int] = None
    tenant_id: Optional[int] = None
    slo_class: Optional[str] = None
    predicted_output_tokens: Optional[int] = None

    # -- engine-side mutable state -------------------------------------- #
    state: RequestState = RequestState.CREATED
    tokens_generated: int = 0
    prefill_done_tokens: int = 0          # chunked-prefill progress
    kv_reserved_bytes: int = 0
    wrs: Optional[float] = None           # weighted request size, once computed
    queue_index: Optional[int] = None     # MLQ lane, once classified
    token_cost: int = 0                   # MLQ quota tokens charged
    squash_count: int = 0                 # times squashed by the bypass logic
    dispatch_queue_delay: float = 0.0     # seconds held in the cluster queue
    shed: bool = False                    # rejected by cluster SLO admission
    deprioritized: bool = False           # moved to the cluster's low lane
    lost: bool = False                    # stranded by a replica failure
    migrated_at: Sequence[float] = ()     # migration timestamps

    # -- timeline stamps -------------------------------------------------#
    enqueue_time: Optional[float] = None
    admit_time: Optional[float] = None       # first admitted to a batch
    adapter_ready_time: Optional[float] = None
    prefill_start_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    adapter_load_critical_path: float = 0.0  # seconds spent blocked on loading
    # The engine's iteration end times and the first token's index in
    # them, bound at the first token (see ``token_times``).
    token_steps: Optional[Sequence[float]] = field(default=None, repr=False)
    first_token_step: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.input_tokens < 1:
            raise ValueError(f"input_tokens must be >= 1, got {self.input_tokens}")
        if self.output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {self.output_tokens}")

    # -- derived metrics --------------------------------------------------#
    @property
    def token_times(self) -> StepView:
        """Emission time of each generated token: a :class:`StepView` of
        ``tokens_generated`` steps of ``token_steps`` from
        ``first_token_step``, or the shared empty view before the first."""
        steps = self.token_steps
        if steps is None:
            return _NO_TOKENS
        first = self.first_token_step
        return StepView(steps, first, first + self.tokens_generated)

    @token_times.setter
    def token_times(self, times: Sequence[float]) -> None:
        # A view keeps its step list; a list is its own.
        n = len(times)
        if not n:
            self.token_steps, self.first_token_step = None, 0
        elif isinstance(times, StepView):
            self.token_steps, self.first_token_step = times.steps, times.start
        else:
            self.token_steps, self.first_token_step = times, 0
        self.tokens_generated = n

    @property
    def retry_count(self) -> int:
        """Times migrated off a dead replica."""
        return len(self.migrated_at)

    @property
    def context_tokens(self) -> int:
        """Current context length: prompt plus generated tokens."""
        return self.input_tokens + self.tokens_generated

    @property
    def remaining_prefill_tokens(self) -> int:
        return self.input_tokens - self.prefill_done_tokens

    @property
    def finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def ttft(self) -> float:
        """Time-to-first-token (arrival to first emitted token)."""
        if self.first_token_time is None:
            raise RuntimeError(f"request {self.request_id} has no first token yet")
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float:
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} has not finished")
        return self.finish_time - self.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Seconds spent waiting in a queue before first admission."""
        if self.admit_time is None or self.enqueue_time is None:
            raise RuntimeError(f"request {self.request_id} was never admitted")
        return self.admit_time - self.enqueue_time

    @property
    def service_wait(self) -> float:
        """Seconds from arrival until the request is actually *served*
        (its prefill starts).  This is the paper's "time waiting in the
        queues": it includes both admission wait and the post-admission wait
        for adapter transfers and the per-iteration prefill budget."""
        if self.prefill_start_time is None or self.enqueue_time is None:
            raise RuntimeError(f"request {self.request_id} never started prefill")
        return self.prefill_start_time - self.enqueue_time
