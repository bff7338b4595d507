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
    times.  The engine binds a view of that run at the first token and
    grows it by moving ``stop``: no time is copied per request.  A view
    compares equal to the list it stands for.
    """

    __slots__ = ("steps", "start", "stop")

    def __init__(self, steps: list[float], start: int, stop: int) -> None:
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


@dataclass(eq=False, slots=True)
class Request:
    """One inference request.

    Requests compare and hash by identity: each object is one request's
    lifecycle, so two requests with equal fields are still two requests.

    Progress contract: ``tokens_generated`` and ``token_times`` are exact
    except while the request is decoding.  Then the engine holds its
    progress (every iteration emits one token for every decoding request,
    so the iteration end times say it all) and the two fields may lag
    behind; the engine brings them up to date when the request finishes,
    is squashed or is stranded by a crash.  At the first token the engine
    binds ``token_times`` to a read-only :class:`StepView` of its own
    iteration end times, and a rollback resets it to an empty list.  A
    hand-built request may still assign a plain list.

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
    retry_count: int = 0                  # times migrated off a dead replica
    migrated_at: list = field(default_factory=list)  # migration timestamps

    # -- timeline stamps -------------------------------------------------#
    enqueue_time: Optional[float] = None
    admit_time: Optional[float] = None       # first admitted to a batch
    adapter_ready_time: Optional[float] = None
    prefill_start_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    token_times: Sequence[float] = field(default_factory=list)
    adapter_load_critical_path: float = 0.0  # seconds spent blocked on loading

    def __post_init__(self) -> None:
        if self.input_tokens < 1:
            raise ValueError(f"input_tokens must be >= 1, got {self.input_tokens}")
        if self.output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {self.output_tokens}")

    # -- derived metrics --------------------------------------------------#
    @property
    def uses_adapter(self) -> bool:
        return self.adapter_id is not None

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

    def token_gaps(self) -> list[float]:
        """Inter-token gaps (the TBT samples), first token excluded."""
        times = list(self.token_times)
        return [b - a for a, b in zip(times, times[1:])]
