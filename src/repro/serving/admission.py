"""Admission control: engine-level batch admission and cluster-level SLO gating.

Keeping all memory/adapter admission logic behind one ``try_admit`` call lets
every scheduling policy (FIFO, SJF, MLQ) share identical resource semantics —
the policies differ only in *which* requests they offer and in what order.

:class:`SloPolicy` is the *cluster-level* half of the story: past the SLO
knee (when the global admission queue is long enough that a new arrival
cannot meet its TTFT deadline anyway) serving it only burns capacity that
deadline-feasible requests could use.  The policy either sheds such arrivals
outright or moves them to a low-priority lane, turning overload into bounded
goodput loss instead of unbounded tail growth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.serving.engine import ServingEngine
    from repro.workload.request import Request
    from repro.workload.tenants import SloClass


@dataclass(frozen=True)
class SloPolicy:
    """Cluster-level SLO admission policy (shed or deprioritize past the knee).

    The dispatcher consults the policy whenever an arrival would have to wait
    in the global admission queue: if the estimated queue wait already
    exceeds the request's TTFT deadline, admitting it cannot produce a
    deadline-compliant response, so the policy acts instead of queueing.

    Attributes:
        ttft_deadline: The TTFT SLO in seconds (e.g. the paper's 5x mean
            isolated latency).  An arrival whose estimated queue wait exceeds
            its effective deadline is past the knee.
        mode: ``"shed"`` rejects the request outright (it never runs, and is
            counted in ``DispatchStats.shed``); ``"deprioritize"`` moves it
            to a low-priority lane that the dispatcher drains only while the
            FIFO lane is empty — it still completes eventually, but never
            delays a deadline-feasible arrival.
        classes: Optional map of SLO-class name to :class:`SloClass`-like
            objects (a ``deadline_scale`` attribute).  When set, a request
            carrying a known ``slo_class`` gets deadline ``ttft_deadline *
            deadline_scale``; requests with no class — or a name not in the
            map — keep the global deadline, so class-labelled and anonymous
            traffic mix under one policy.  ``classes=None`` is
            byte-identical to the historical single-deadline behavior.
    """

    MODES = ("shed", "deprioritize")

    ttft_deadline: float
    mode: str = "shed"
    classes: Optional[Mapping[str, "SloClass"]] = None

    def __post_init__(self) -> None:
        if self.ttft_deadline <= 0:
            raise ValueError(f"ttft_deadline must be > 0, got {self.ttft_deadline}")
        if self.mode not in self.MODES:
            raise ValueError(f"unknown SLO mode {self.mode!r}; pick from {self.MODES}")

    def class_of(self, request: "Request") -> Optional["SloClass"]:
        """The request's resolved SLO class, or ``None`` for global rules."""
        if self.classes is None:
            return None
        name = getattr(request, "slo_class", None)
        if name is None:
            return None
        return self.classes.get(name)

    def deadline_for(self, request: "Request") -> float:
        """The effective TTFT deadline of one request, in seconds."""
        cls = self.class_of(request)
        if cls is None:
            return self.ttft_deadline
        return self.ttft_deadline * cls.deadline_scale

    def attained(self, request: "Request") -> bool:
        """True when the request finished within its effective deadline."""
        if not request.finished or request.first_token_time is None:
            return False
        return request.ttft <= self.deadline_for(request)

    def trace_args(self, request: "Request",
                   deadline: Optional[float] = None) -> dict:
        """Annotation payload for a shed/deprioritize trace instant.

        One place decides what an SLO decision looks like in a trace:
        the policy mode, the effective deadline that was missed, and the
        request's SLO class when it has one.  ``deadline`` lets callers
        that already computed :meth:`deadline_for` pass it through
        instead of paying the lookup twice.
        """
        args: dict = {
            "mode": self.mode,
            "deadline": self.deadline_for(request) if deadline is None
            else deadline,
        }
        slo_class = getattr(request, "slo_class", None)
        if slo_class is not None:
            args["slo_class"] = slo_class
        return args


#: DRR quantum of a tenant whose requests carry no (or an unknown) SLO class.
DEFAULT_WEIGHT = 1.0
#: :meth:`TenantFairnessPolicy.from_shares` caps each tenant at this
#: multiple of its fair share of the fleet capacity.
HEADROOM = 1.25


@dataclass(frozen=True)
class TenantFairnessPolicy:
    """Per-tenant quotas and weighted-fair dispatch configuration.

    Attaching one to a :class:`DataParallelCluster` (``tenancy=``) keys its
    admission lanes by tenant: each tenant's lane is drained by deficit
    round-robin with its class weight as quantum, under a token-bucket rate
    cap.  (Without a policy the cluster keeps one FIFO lane on the same
    path.)  The policy object is immutable *configuration* — every cluster
    (each shard of a region) builds its own runtime lane state from it, so
    one policy can be shared across a whole region.

    Semantics:

    * **Weights** are relative service shares under contention: a lane's DRR
      quantum is its tenant's class weight (``weight_for``).  An idle fleet
      serves everyone immediately; weights only matter while lanes are
      backlogged.
    * **Quotas are relative shares, not hard partitions** (borrow-from-idle):
      a tenant whose token bucket is empty is throttled only while *another*
      lane has unthrottled backlogged work.  When the rest of the fleet is
      idle — or every backlogged lane is equally out of budget — the
      dispatcher serves past the cap and counts the overage as ``borrowed``
      instead of leaving capacity on the floor.

    Attributes:
        classes: Map of SLO-class name to :class:`SloClass`-like objects
            (``weight`` attribute); resolves each tenant's DRR quantum from
            the class its requests carry.
        quota_rps: Per-tenant admission-rate caps, requests/second.  Tenants
            absent from the map (and the anonymous ``None`` lane) are
            uncapped.  An empty map means weighted-fair dispatch only.
        quota_burst: Token-bucket depth, in requests: how far a tenant may
            burst above its sustained rate before throttling.

    Tenants whose requests carry no (or an unknown) SLO class get the DRR
    quantum :data:`DEFAULT_WEIGHT`.
    """

    classes: Optional[Mapping[str, "SloClass"]] = None
    quota_rps: Mapping[int, float] = field(default_factory=dict)
    quota_burst: float = 8.0

    def __post_init__(self) -> None:
        if self.quota_burst < 1.0:
            raise ValueError(
                f"quota_burst must be >= 1 request, got {self.quota_burst}")
        for tenant, rate in self.quota_rps.items():
            if rate <= 0:
                raise ValueError(
                    f"quota_rps[{tenant}] must be > 0, got {rate}")

    def weight_for(self, slo_class: Optional[str]) -> float:
        """DRR quantum for a request class (the default for unknown names)."""
        if slo_class is not None and self.classes is not None:
            cls = self.classes.get(slo_class)
            if cls is not None:
                return float(cls.weight)
        return DEFAULT_WEIGHT

    def rate_for(self, tenant_id: Optional[int]) -> Optional[float]:
        """Sustained admission cap of a tenant lane, or ``None`` if uncapped."""
        if tenant_id is None:
            return None
        return self.quota_rps.get(tenant_id)

    @classmethod
    def from_shares(
        cls,
        shares: Mapping[int, float],
        capacity_rps: float,
        classes: Optional[Mapping[str, "SloClass"]] = None,
        quota_burst: float = 8.0,
    ) -> "TenantFairnessPolicy":
        """Caps proportional to traffic shares of a known fleet capacity.

        Each tenant may sustain :data:`HEADROOM` times its fair share of
        ``capacity_rps`` — quota enforcement should bite on *abusive*
        overload, not on ordinary burstiness.
        """
        if capacity_rps <= 0:
            raise ValueError(f"capacity_rps must be > 0, got {capacity_rps}")
        total = sum(shares.values())
        if total <= 0:
            raise ValueError("shares must sum to > 0")
        quota = {
            tenant: capacity_rps * HEADROOM * share / total
            for tenant, share in shares.items()
        }
        return cls(classes=classes, quota_rps=quota, quota_burst=quota_burst)


class AdmitResult(enum.Enum):
    """Outcome of one admission attempt."""

    ADMITTED = "admitted"
    #: The running batch is at its configured size cap.
    BATCH_FULL = "batch_full"
    #: Not enough GPU memory for the request's KV cache, even after evicting
    #: every idle cached adapter.
    NO_MEMORY = "no_memory"
    #: KV would fit, but the request's (missing) adapter does not — even after
    #: evicting all idle cached adapters.  This is the §4.3.3 bypass trigger.
    NO_ADAPTER_ROOM = "no_adapter_room"


class AdmissionContext:
    """One scheduling round's view of the engine.

    Schedulers call :meth:`try_admit` for each candidate in their preferred
    order; a successful call reserves resources immediately, so a later
    failure in the same round reflects what the earlier admissions consumed.
    """

    def __init__(self, engine: "ServingEngine") -> None:
        self._engine = engine
        self.admitted: list = []

    @property
    def now(self) -> float:
        return self._engine.sim.now

    @property
    def free_bytes(self) -> int:
        return self._engine.gpu.free_bytes

    @property
    def total_token_capacity(self) -> int:
        """System-wide scheduling tokens (for MLQ quota accounting)."""
        return self._engine.total_token_capacity

    def try_admit(self, request: "Request") -> AdmitResult:
        """Attempt to admit ``request`` to the batch right now."""
        result = self._engine.admit(request)
        if result is AdmitResult.ADMITTED:
            self.admitted.append(request)
        return result

    def is_adapter_available(self, request: "Request") -> bool:
        """True if the request's adapter is resident or in flight (no new load needed)."""
        if request.adapter_id is None:
            return True
        mgr = self._engine.adapter_manager
        return mgr.is_resident(request.adapter_id) or mgr.is_loading(request.adapter_id)

    def estimate_service_time(self, request: "Request") -> float:
        """Predicted service time of a request (scheduler-visible knowledge only)."""
        return self._engine.estimate_service_time(request)

    def estimate_earliest_release(self) -> float:
        """Predicted seconds until the next running request frees its memory."""
        return self._engine.estimate_earliest_release()

    def adapter_refcount(self, adapter_id: int) -> int:
        return self._engine.adapter_manager.refcount(adapter_id)

    def squash(self, request: "Request") -> None:
        """Abort an in-flight request for later re-execution (§4.3.3)."""
        self._engine.squash(request)
