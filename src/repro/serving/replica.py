"""Data-parallel serving: N engines behind a two-level scheduler (§4.4).

With data parallelism, Chameleon "uses a two-level scheduler: a global
scheduler dispatches requests to the different engines, and each engine has
its local scheduler", and "replicates the adapter cache across engines"
(each replica manages its own cache of the shared adapter pool).

:class:`MultiReplicaSystem` is the one run path.  It builds N replicas of
any system preset on one shared simulated clock, dispatches arrivals through
a :class:`~repro.hardware.cluster.DataParallelCluster` (global admission
queue with backpressure + routing policy), runs the trace and aggregates
metrics across engines.  A single engine is the degenerate case:
:func:`repro.systems.build_system` returns a 1-replica cluster without
backpressure, and a :class:`~repro.serving.region.ServingRegion` runs one
cluster per dispatcher shard.  Each replica derives its own RNG seed
(``seed + i``) so predictor noise and any other stochastic component are
independent across the cluster — a shared seed would correlate the errors
and bias DP experiments.

Dispatch policies (``dispatch_policy=`` in :meth:`MultiReplicaSystem.build`):

=====================  =========================================================
policy                 routing rule
=====================  =========================================================
``round_robin``        cyclic assignment; load- and cache-oblivious
``least_loaded``       JSQ by in-flight request count
``p2c``                power-of-two-choices: sample 2 engines, join the less
                       loaded (near-JSQ balance with O(1) probes)
``token_weighted``     JSQ by in-flight *tokens* (remaining prefill +
                       predicted remaining decode), robust to size skew
``adapter_affinity``   least-loaded engine holding the adapter resident;
                       unbounded — a hot adapter can swamp one replica
``bounded_affinity``   adapter affinity until the affine replica's load
                       exceeds ``spill_factor`` x the cluster mean, then JSQ
=====================  =========================================================

Every load probe the table relies on is divided by the replica's relative
``capability()`` (compute x bandwidth, TP-scaled), so on a **heterogeneous
fleet** (``replica_specs=``, mixed GPU specs behind one dispatcher) the
load-following policies compare utilization, not raw backlog; pass
``normalize_capability=False`` to reproduce spec-oblivious routing.

On top of routing sits the **SLO admission lane** (``slo_policy=``, a
:class:`~repro.serving.admission.SloPolicy`): arrivals whose estimated
global-queue wait exceeds their TTFT deadline are shed (rejected with
accounting) or deprioritized into a low-priority lane drained only while
the FIFO lane is empty.  Goodput, shed rate and SLO attainment surface in
``summary().extra``.

**Elastic fleets**: every replica sits behind a :class:`ReplicaHandle` with
an explicit lifecycle (``PROVISIONING -> ACTIVE -> DRAINING -> RETIRED``);
only ACTIVE replicas are dispatch targets.  A :class:`ReplicaFactory` builds
replicas mid-run on the shared clock, and an
:class:`~repro.serving.autoscaler.Autoscaler` (``autoscale=``) grows the
fleet on sustained shed-rate/queue-delay pressure (in ``mode="predictive"``
also ahead of forecast demand) and shrinks it on sustained idleness, within
``[min_replicas, max_replicas]`` and under a cooldown.  Provisioning
replicas pay a cold-start delay before joining; draining ones finish their
in-flight work but accept nothing new.

**Fault tolerance** (:mod:`repro.faults`): replicas can crash (terminal
``FAILED`` state; all their work migrates back through the dispatcher, or is
stranded as ``lost`` in the no-recovery model), degrade (a service-rate
multiplier the observed-capability estimator converges to) or stall (a
transient admission outage).  A self-healing autoscaler replaces crashed
replicas.  Availability, migration and retry accounting appear in
``summary().extra`` only when a fault injector is attached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.hardware.cluster import DataParallelCluster
from repro.hardware.gpu import GpuSpec
from repro.metrics.summary import (
    RunSummary,
    percentile,
    summarize_run,
    tenant_block,
)
from repro.serving.admission import SloPolicy
from repro.serving.autoscaler import (
    Autoscaler,
    AutoscaleConfig,
    ObservedCapabilityEstimator,
)
from repro.serving.engine import EngineConfig
from repro.sim.simulator import Simulator
from repro.workload.request import Request


class ReplicaState(enum.Enum):
    """Lifecycle of one replica in an elastic fleet.

    ``PROVISIONING -> ACTIVE -> DRAINING -> RETIRED``, with one shortcut: a
    replica whose cold start is cancelled by a scale-in retires straight
    from PROVISIONING (it never served).  Zero-delay provisioning passes
    through PROVISIONING at a single timestamp.

    ``FAILED`` is the second terminal state: a fault (crash injection) can
    kill a replica from any non-terminal state — including mid-cold-start
    and mid-drain.  Unlike RETIRED, a failure is involuntary: the replica's
    work is migrated (or stranded as lost) rather than finished, and its
    GPU is gone, so it stops counting against the autoscaler's holding
    ceiling immediately.
    """

    PROVISIONING = "provisioning"  # resources committed, cold start running
    ACTIVE = "active"              # in the dispatch set
    DRAINING = "draining"          # finishing in-flight work, accepts nothing
    RETIRED = "retired"            # drained and removed; accounting frozen
    FAILED = "failed"              # crashed; work migrated or lost


#: Legal lifecycle edges (see :class:`ReplicaState`).
_TRANSITIONS: dict[ReplicaState, tuple[ReplicaState, ...]] = {
    ReplicaState.PROVISIONING: (ReplicaState.ACTIVE, ReplicaState.RETIRED,
                                ReplicaState.FAILED),
    ReplicaState.ACTIVE: (ReplicaState.DRAINING, ReplicaState.FAILED),
    ReplicaState.DRAINING: (ReplicaState.RETIRED, ReplicaState.FAILED),
    ReplicaState.RETIRED: (),
    ReplicaState.FAILED: (),
}


@dataclass
class ReplicaHandle:
    """One replica's lifecycle record: engine, state, and timestamps.

    The handle owns its state machine (transitions validate against
    ``_TRANSITIONS``); the cluster owns the *timing* — it schedules the
    cold-start timers and calls the transition methods.  ``index`` is the
    replica's stable slot in the cluster's engine list (retired replicas
    keep their slot so per-replica accounting never shifts).
    """

    engine: Any
    index: int
    state: ReplicaState = ReplicaState.ACTIVE
    provisioned_at: float = 0.0
    active_at: Optional[float] = None
    drain_started_at: Optional[float] = None
    retired_at: Optional[float] = None
    failed_at: Optional[float] = None
    #: Transient-stall fault: the replica is healthy and keeps serving its
    #: in-flight work, but accepts no new dispatches until the window ends.
    stalled: bool = False
    #: Pending cold-start timer (a Simulator Event), cancelled when a
    #: scale-in retires the replica before it ever activates.
    pending_event: Any = field(default=None, repr=False)

    # -- state predicates (duck-typed by the autoscaler; keep them cheap) --
    @property
    def is_provisioning(self) -> bool:
        return self.state is ReplicaState.PROVISIONING

    @property
    def is_active(self) -> bool:
        return self.state is ReplicaState.ACTIVE

    @property
    def is_draining(self) -> bool:
        return self.state is ReplicaState.DRAINING

    @property
    def is_retired(self) -> bool:
        return self.state is ReplicaState.RETIRED

    @property
    def is_failed(self) -> bool:
        return self.state is ReplicaState.FAILED

    @property
    def accepts_work(self) -> bool:
        """Dispatch eligibility: ACTIVE and not in a transient stall."""
        return self.state is ReplicaState.ACTIVE and not self.stalled

    @property
    def in_fleet(self) -> bool:
        """Counted against the fleet-size bounds (not retired/draining/
        failed — a dead replica's capacity is gone)."""
        return self.state in (ReplicaState.PROVISIONING, ReplicaState.ACTIVE)

    def in_flight(self) -> int:
        """The engine's in-flight request count."""
        return self.engine.in_flight_count()

    # -- transitions -------------------------------------------------------
    def _transition(self, new_state: ReplicaState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise RuntimeError(
                f"replica {self.index}: illegal lifecycle transition "
                f"{self.state.value} -> {new_state.value}")
        self.state = new_state

    def activate(self, now: float) -> None:
        self._transition(ReplicaState.ACTIVE)
        self.active_at = now

    def begin_drain(self, now: float) -> None:
        self._transition(ReplicaState.DRAINING)
        self.drain_started_at = now

    def retire(self, now: float) -> None:
        self._transition(ReplicaState.RETIRED)
        self.retired_at = now

    def fail(self, now: float) -> None:
        self._transition(ReplicaState.FAILED)
        self.failed_at = now
        self.stalled = False

    # -- accounting --------------------------------------------------------
    def replica_seconds(self, now: float) -> float:
        """Resource-time consumed: provisioning start until retirement (or
        failure — a crashed GPU stops billing the moment it dies).

        A provisioning replica is already holding a GPU, and a draining one
        still is — both count.  Retired replicas are frozen at
        ``retired_at``, failed ones at ``failed_at``.
        """
        end = now
        if self.retired_at is not None:
            end = self.retired_at
        elif self.failed_at is not None:
            end = self.failed_at
        return max(0.0, end - self.provisioned_at)


@dataclass
class ReplicaFactory:
    """Builds replicas of one preset on a shared clock, mid-run included.

    Replica ``index`` is built with ``seed + index`` (the same derivation
    the initial fleet uses), so a replica provisioned by the autoscaler at
    t=83s has the same decorrelated RNG streams it would have had at
    construction time.  ``spec`` accepts any ``replica_specs`` entry of
    the initial fleet; replicas provisioned mid-run take the shared
    defaults.
    """

    preset: str
    sim: Simulator
    seed: int
    build_kwargs: dict

    def build(self, index: int, spec=None):
        from repro.systems import build_replica  # local import: avoid cycle

        overrides = _replica_overrides(spec)
        return build_replica(self.preset, sim=self.sim, seed=self.seed + index,
                             **{**self.build_kwargs, **overrides})


@dataclass
class MultiReplicaSystem:
    """N data-parallel replicas of one serving-system preset."""

    replicas: list
    cluster: DataParallelCluster
    sim: Simulator
    slo_policy: Optional[SloPolicy] = None
    factory: Optional[ReplicaFactory] = None
    autoscaler: Optional[Autoscaler] = None
    fault_injector: Optional[Any] = None

    @classmethod
    def build(
        cls,
        preset: str,
        n_replicas: Optional[int] = None,
        dispatch_policy: str = "least_loaded",
        *,
        backpressure: bool = True,
        spill_factor: float = 1.5,
        slo_policy: Optional[SloPolicy] = None,
        tenancy=None,
        replica_specs: Optional[Sequence] = None,
        normalize_capability: bool = True,
        autoscale: Optional[AutoscaleConfig] = None,
        capability_estimator="auto",
        fault_schedule=None,
        mttf: Optional[float] = None,
        mttr: Optional[float] = None,
        fault_migrate: bool = True,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        **build_kwargs,
    ) -> "MultiReplicaSystem":
        """Build ``n_replicas`` replicas of ``preset`` on one shared clock.

        Accepts the same keyword arguments as
        :func:`repro.systems.build_replica`.  Replica ``i`` is built with
        ``seed + i`` so per-replica RNG streams (predictor noise, ...) are
        decorrelated; the dispatcher's own randomness (p2c sampling) derives
        from the base ``seed``.

        ``replica_specs`` makes the fleet heterogeneous: one entry per
        replica, each a :class:`GpuSpec`, a GPU-zoo name (``"a100-80gb"``),
        an :class:`EngineConfig`, or a dict of ``build_replica`` overrides
        (e.g. ``{"gpu": "a40-48gb", "engine_config": ...}``); ``None``
        entries keep the shared defaults.  ``n_replicas`` may be omitted
        when ``replica_specs`` determines the fleet size.

        ``autoscale`` (an :class:`~repro.serving.autoscaler.AutoscaleConfig`)
        makes the fleet elastic: the initial fleet (``n_replicas``, default
        ``min_replicas``) is the floor the controller grows from.  Scale
        events, replica-seconds and goodput per replica-second surface in
        ``summary().extra``.  ``capability_estimator`` selects the routing
        weights: ``"spec"`` (static, from GPU specs), ``"observed"`` (an
        :class:`ObservedCapabilityEstimator` tracking per-replica service
        rates), an estimator instance, or ``"auto"`` (default): observed
        when autoscaling — newly provisioned replicas need live weights —
        and spec otherwise.

        **Faults** (see :mod:`repro.faults`): ``fault_schedule`` (a
        :class:`~repro.faults.FaultSchedule` or its CLI string syntax)
        scripts crashes/degradations/stalls at explicit times; ``mttf``
        adds a seeded random failure process (``mttr`` turns failures into
        repairable outages).  ``fault_migrate`` selects crash recovery:
        replay a dead replica's work, started or not, through the
        dispatcher, or strand it all as lost (the no-recovery baseline).
        The fault RNG is its own named stream (``seed`` + ``"faults"``), so
        the fault times never perturb the workload.

        ``tenancy`` (a :class:`~repro.serving.admission.TenantFairnessPolicy`)
        switches the dispatcher's global queue to per-tenant deficit-round-
        robin lanes with token-bucket admission quotas and adds the
        per-tenant fairness block to ``summary().extra``; ``None`` keeps
        one anonymous FIFO lane.

        ``sim`` shares an existing clock — a
        :class:`~repro.serving.region.ServingRegion` builds one system per
        dispatcher shard on one simulator.
        """
        from repro.systems import build_replica  # local import: avoid cycle

        if replica_specs is not None:
            replica_specs = list(replica_specs)
            if n_replicas is None:
                n_replicas = len(replica_specs)
            elif n_replicas != len(replica_specs):
                raise ValueError(
                    f"replica_specs has {len(replica_specs)} entries but "
                    f"n_replicas={n_replicas}")
        if n_replicas is None:
            if autoscale is not None:
                n_replicas = autoscale.min_replicas
            else:
                raise ValueError("pass n_replicas, replica_specs or autoscale")
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if autoscale is not None:
            if not backpressure:
                raise ValueError(
                    "autoscaling needs backpressure: its pressure signals "
                    "(shed rate, queue wait) live in the global queue")
            if not autoscale.min_replicas <= n_replicas <= autoscale.max_replicas:
                raise ValueError(
                    f"initial fleet of {n_replicas} is outside the autoscale "
                    f"bounds [{autoscale.min_replicas}, {autoscale.max_replicas}]")
            if build_kwargs.get("registry") is None:
                # Scale-out replicas must share the adapter pool with the
                # initial fleet; build one registry up front instead of one
                # per build call, with the model/pool-size defaults read off
                # build_replica's own signature (one source of truth).
                import inspect

                from repro.adapters.registry import AdapterRegistry
                defaults = inspect.signature(build_replica).parameters
                build_kwargs["registry"] = AdapterRegistry.build(
                    build_kwargs.get("model", defaults["model"].default),
                    build_kwargs.get("n_adapters",
                                     defaults["n_adapters"].default))
        estimator = cls._resolve_estimator(capability_estimator, autoscale)
        if sim is None:
            sim = Simulator()  # own clock; a region passes its shared one
        factory = ReplicaFactory(preset=preset, sim=sim, seed=seed,
                                 build_kwargs=dict(build_kwargs))
        replicas = []
        for i in range(n_replicas):
            spec = replica_specs[i] if replica_specs is not None else None
            replicas.append(factory.build(i, spec=spec))
        cluster = DataParallelCluster(
            [replica.engine for replica in replicas],
            policy=dispatch_policy,
            backpressure=backpressure,
            spill_factor=spill_factor,
            slo_policy=slo_policy,
            normalize_capability=normalize_capability,
            rng=np.random.default_rng(seed),  # simlint: ignore[D001] -- dispatch RNG byte stream pinned since PR 1; moving it into RngStreams would re-pair every fig26-fig30 baseline
            capability_estimator=estimator,
            sim=sim,
            tenancy=tenancy,
        )
        system = cls(replicas=replicas, cluster=cluster, sim=sim,
                     slo_policy=slo_policy, factory=factory)
        if autoscale is not None:
            system.autoscaler = Autoscaler(
                sim=sim, cluster=cluster, config=autoscale,
                provision=system.provision_replica)
        if fault_schedule is not None or mttf is not None:
            from repro.faults import FaultInjector, FaultSchedule
            from repro.sim.rng import RngStreams
            if isinstance(fault_schedule, str):
                fault_schedule = FaultSchedule.parse(fault_schedule)
            system.fault_injector = FaultInjector(
                cluster, sim=sim, schedule=fault_schedule,
                mttf=mttf, mttr=mttr,
                rng=RngStreams(seed).get("faults") if mttf is not None
                else None,
                migrate=fault_migrate)
        return system

    @staticmethod
    def _resolve_estimator(capability_estimator, autoscale):
        if capability_estimator == "auto":
            capability_estimator = "observed" if autoscale is not None else "spec"
        if capability_estimator in ("spec", None):
            return None
        if capability_estimator == "observed":
            return ObservedCapabilityEstimator()
        return capability_estimator  # an estimator instance

    # ------------------------------------------------------------------ #
    @property
    def engines(self) -> list:
        return [replica.engine for replica in self.replicas]

    def capabilities(self) -> list[float]:
        """Normalized per-replica capability weights (mean 1.0)."""
        return self.cluster.capability_weights()

    def provision_replica(self, *, provision_delay: float = 0.0):
        """Build one replica on the shared clock and add it to the fleet.

        The replica derives its seed from its fleet index (``seed + i``)
        and joins the dispatch set once its cold start elapses.  Returns
        the new :class:`ReplicaHandle`.
        """
        if self.factory is None:
            raise RuntimeError(
                "this system has no ReplicaFactory; build it with "
                "MultiReplicaSystem.build to provision replicas mid-run")
        index = len(self.replicas)
        replica = self.factory.build(index)
        self.replicas.append(replica)
        return self.cluster.add_replica(
            replica.engine, provision_delay=provision_delay)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def attach_tracer(self, tracer, shard: int = 0) -> None:
        """Attach a :class:`repro.obs.Tracer` to every moving part of this
        system: the dispatch cluster (queue/dispatch spans, SLO and
        migration annotations, per-request span waterfalls on the replica
        tracks), the autoscaler (scale decisions), and the fault injector
        (crash/stall/degrade marks).  ``shard`` namespaces the Perfetto
        tracks when several systems share one tracer (see
        :class:`~repro.serving.region.ServingRegion`)."""
        from repro.obs.tracer import dispatcher_tid

        self.cluster.attach_tracer(tracer, shard=shard)
        if self.autoscaler is not None:
            self.autoscaler.attach_tracer(tracer, tid=dispatcher_tid(shard))
        if self.fault_injector is not None:
            self.fault_injector.attach_tracer(
                tracer, tid=dispatcher_tid(shard))

    def attach_metrics(self, registry, prefix: str = "") -> None:
        """Register this system's gauges/histograms on ``registry`` (queue
        depth, in-flight, cache hit rate, GPU bytes, TTFT, ...).  Call
        ``registry.install(sim, interval, until)`` to sample them into a
        deterministic timeseries."""
        self.cluster.attach_metrics(registry, prefix=prefix)

    def run_trace(self, requests, horizon: Optional[float] = None) -> None:
        """Dispatch every arrival through the global scheduler and run.

        Arrivals are fed lazily to ``cluster.dispatch``, one pending at a
        time (see :meth:`Simulator.feed`, which also rejects a request
        already run).  Without a ``horizon`` the run ends when the event
        heap drains."""
        last_arrival = self.sim.feed(requests, self.cluster.dispatch)
        self.start(last_arrival, horizon)
        self.sim.run(until=horizon)

    def start(self, last_arrival: float, horizon: Optional[float]) -> None:
        """Start this system's timers once its arrivals are fed (a region
        calls it per shard): autoscaler ticks, fault injection and each
        engine's GPU-memory sampling, until the horizon or, without one,
        the last arrival (ticks go on while work remains; iteration ends
        sample too)."""
        until = horizon if horizon is not None else last_arrival
        if self.autoscaler is not None:
            self.autoscaler.start(until=until)
        if self.fault_injector is not None:
            self.fault_injector.start(until=until)
        for engine in self.engines:
            engine.start_memory_sampling(until)

    def all_requests(self) -> list[Request]:
        """Every arrival: dispatched to an engine, still in a cluster queue
        (a horizon can stop a backlogged run mid-queue), *or* shed by the
        SLO policy — accounting must not lose any of them."""
        dispatched = [r for engine in self.engines for r in engine.all_requests]
        return dispatched + self.cluster.pending_requests() \
            + self.cluster.shed_requests()

    def summary(self, **kwargs) -> RunSummary:
        """Cluster-wide :class:`RunSummary` with DP extensions in ``extra``:

        per-replica completion counts, load imbalance (max/mean), the
        lookup-weighted aggregate cache hit rate, and dispatch-queue delay
        percentiles (0 for requests that never waited in the global queue).
        The delay percentiles cover the same population as the latency
        columns: finished requests arriving after ``warmup``.

        With an :class:`SloPolicy` attached, ``extra`` also carries the SLO
        accounting: ``cluster_shed`` / ``cluster_deprioritized`` counts,
        ``shed_rate`` (shed / post-warmup arrivals),
        ``cluster_slo_attainment`` (deadline-compliant completions /
        post-warmup arrivals — shed and unfinished requests count against
        it, and per-request deadlines apply; distinct from the
        finished-only ``RunSummary.slo_attainment`` field), and
        ``goodput_rps`` (deadline-compliant completions per second over
        the same span the ``completed_rps`` column uses).
        """
        requests = self.all_requests()
        summary = summarize_run(requests, **kwargs)
        warmup = kwargs.get("warmup", 0.0)
        arrivals = [r for r in requests if r.arrival_time >= warmup]
        done = [r for r in arrivals if r.finished]
        delays = [r.dispatch_queue_delay for r in done]
        counts = self.per_replica_counts()
        mean_count = sum(counts) / len(counts)
        summary.extra.update(
            per_replica_counts=counts,
            # Max/mean of per-replica completions (1.0 = perfect balance).
            load_imbalance=max(counts) / mean_count if mean_count > 0 else float("nan"),
            aggregate_hit_rate=self.aggregate_hit_rate(),
            p50_dispatch_queue_delay=percentile(delays, 50),
            p99_dispatch_queue_delay=percentile(delays, 99),
            cluster_queued=self.cluster.stats.queued,
            affinity_spills=self.cluster.stats.spills,
            cluster_shed=self.cluster.stats.shed,
            cluster_deprioritized=self.cluster.stats.deprioritized,
        )
        good_completions: Optional[int] = None
        if self.slo_policy is not None:
            attained = [r for r in done if self.slo_policy.attained(r)]
            good_completions = len(attained)
            shed = sum(1 for r in arrivals if r.shed)
            span = kwargs.get("duration")
            if span is None:
                span = max((r.finish_time for r in done), default=0.0)
            summary.extra.update(
                shed_rate=shed / len(arrivals) if arrivals else float("nan"),
                cluster_slo_attainment=(
                    len(attained) / len(arrivals) if arrivals else float("nan")),
                goodput_rps=len(attained) / span if span > 0 else 0.0,
            )
        if self.autoscaler is not None:
            replica_seconds = self.cluster.replica_seconds(self.sim.now)
            if good_completions is None:
                # Without an SLO policy every post-warmup completion counts.
                good_completions = len(done)
            summary.extra.update(
                scale_out_events=self.autoscaler.scale_out_count,
                scale_in_events=self.autoscaler.scale_in_count,
                predictive_scale_out_events=(
                    self.autoscaler.predictive_scale_out_count),
                scale_events=list(self.autoscaler.events),
                replica_seconds=replica_seconds,
                peak_fleet_size=self.autoscaler.peak_fleet,
                final_active_replicas=self.cluster.active_count(),
                goodput_per_replica_second=(
                    good_completions / replica_seconds
                    if replica_seconds > 0 else 0.0),
            )
        if self.fault_injector is not None:
            # Fault accounting is keyed on the injector's presence, not on
            # whether faults actually fired: a fault-free *configuration*
            # (no injector) keeps its summary byte-identical to the
            # pre-fault-subsystem output.
            lost = sum(1 for r in arrivals if r.lost)
            stats = self.cluster.stats
            summary.extra.update(
                cluster_failures=stats.failures,
                cluster_stalls=stats.stalls,
                cluster_migrations=stats.migrations,
                cluster_lost=stats.lost,
                lost_rate=lost / len(arrivals) if arrivals else float("nan"),
                # Availability as the user sees it: the fraction of offered
                # requests not stranded by a failure (shed requests got an
                # answer — a rejection — so they count as served here).
                availability=(
                    1.0 - lost / len(arrivals) if arrivals else float("nan")),
                fault_log=list(self.fault_injector.log),
                migration_timeline=list(self.cluster.migration_log),
                retry_timelines={
                    r.request_id: list(r.migrated_at)
                    for r in requests if r.migrated_at},
                max_retry_count=max(
                    (r.retry_count for r in requests), default=0),
            )
            if self.autoscaler is not None:
                summary.extra.update(
                    self_heal_events=self.autoscaler.self_heal_count)
        if self.cluster.tenancy is not None:
            # Keyed on the fairness policy's presence, not on whether the
            # trace carries tenants: a tenant-labelled trace run without a
            # tenancy policy (fig31) keeps its summary byte-identical.
            tenant_block(summary.extra, requests, [self.cluster.stats.tenants],
                         warmup=warmup,
                         attained=(self.slo_policy.attained
                                   if self.slo_policy is not None else None))
        return summary

    def per_replica_counts(self) -> list[int]:
        """Completed requests per replica (load-balance diagnostics)."""
        return [
            sum(1 for r in engine.all_requests if r.finished)
            for engine in self.engines
        ]

    def aggregate_hit_rate(self) -> float:
        """Cluster-wide hit rate, weighted by each replica's lookup volume.

        This is total hits over total lookups — unlike the unweighted mean of
        per-replica rates (:meth:`mean_hit_rate`), it is not skewed by
        replicas that served almost no adapter traffic.
        """
        hits = sum(r.adapter_manager.stats.hits for r in self.replicas)
        lookups = sum(
            r.adapter_manager.stats.hits
            + r.adapter_manager.stats.misses
            + r.adapter_manager.stats.overlapped
            for r in self.replicas
        )
        return hits / lookups if lookups else float("nan")

    def mean_hit_rate(self) -> float:
        """Unweighted mean of per-replica hit rates (legacy diagnostic;
        prefer :meth:`aggregate_hit_rate` for cluster-level claims)."""
        rates = [
            replica.adapter_manager.stats.hit_rate for replica in self.replicas
            if replica.adapter_manager.stats.hits
            + replica.adapter_manager.stats.misses
            + replica.adapter_manager.stats.overlapped > 0
        ]
        return sum(rates) / len(rates) if rates else float("nan")


def _replica_overrides(spec) -> dict:
    """Normalize one ``replica_specs`` entry to ``build_replica`` overrides
    (which resolves GPU-zoo names, with the one error message for a bad
    name)."""
    if spec is None:
        return {}
    if isinstance(spec, (GpuSpec, str)):
        return {"gpu": spec}
    if isinstance(spec, EngineConfig):
        return {"engine_config": spec}
    if isinstance(spec, dict):
        return dict(spec)
    raise TypeError(
        f"replica spec must be a GpuSpec, GPU name, EngineConfig, dict or "
        f"None, got {type(spec).__name__}")
