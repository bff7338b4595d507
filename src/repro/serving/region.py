"""Sharded region control plane: D dispatcher shards behind one router.

A single :class:`~repro.serving.replica.MultiReplicaSystem` scales its
*fleet*, but its dispatcher stays one global object: one admission queue,
one routing decision per arrival over the whole fleet.  At region scale
(hundreds of replicas) that centralization is both a simulated bottleneck
(every arrival contends on one queue) and a modelling gap — real serving
regions run several dispatcher cells, each owning a slice of the fleet.

:class:`ServingRegion` models that control plane:

* **D dispatcher shards**, each a full ``MultiReplicaSystem`` (its own
  global queue, SLO admission, autoscaler, fault injector) on one shared
  simulated clock.
* **A thin region router** keys each arrival to a home shard — by a
  multiplicative hash of its adapter id (``shard_key="hash"``, the
  default) or of its tenant id (``shard_key="tenant"``, pinning each
  tenant's traffic and adapter residency to one shard).
* **Cross-shard load shedding ("spill")**: an arrival finding its home
  shard unable to admit immediately is offered to the least-loaded
  sibling shard with headroom, instead of queueing (or shedding) at home
  while a neighbor idles.
* **Work stealing**: whenever a capacity-freeing event (finish, replica
  activation, stall end) leaves a shard able to admit, it pulls queued
  requests from the most-backlogged sibling (FIFO head first, so
  cross-shard service stays roughly arrival-ordered) until it is full
  again or no sibling's backlog reaches :data:`STEAL_THRESHOLD`.

A 1-shard region is the degenerate case: the router always picks shard 0,
spill has no siblings, stealing registers no hooks, and the run is
bit-for-bit identical to the bare ``MultiReplicaSystem`` it wraps (the
property suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.summary import RunSummary, summarize_run, tenant_block
from repro.serving.replica import MultiReplicaSystem
from repro.sim.simulator import Simulator
from repro.workload.request import Request

#: Seed stride between dispatcher shards: shard ``i`` builds its system
#: with ``seed + i * SHARD_SEED_STRIDE``, so per-replica streams never
#: collide across shards (a shard holds far fewer than this many replicas)
#: and shard 0 keeps the caller's seed exactly — the 1-shard region is
#: byte-identical to the bare system.
SHARD_SEED_STRIDE = 100_003

#: Knuth's multiplicative hash constant (2^32 / phi, odd): spreads the
#: small dense integer keys (adapter ids, tenant ids) across shards far
#: better than a bare modulo, which would map adapters 0..D-1 to shards
#: 0..D-1 in order and alias any stride-D structure in the key space.
_HASH_MULT = 2_654_435_761
_HASH_MASK = 0xFFFFFFFF

#: Minimum sibling backlog (queued requests) worth stealing from: below it
#: the migration overhead is not worth the rebalance, and a threshold of 1
#: would ping-pong single requests between shards.
STEAL_THRESHOLD = 2


@dataclass(frozen=True)
class RegionConfig:
    """Knobs of the sharded region control plane.

    Attributes:
        n_shards: Dispatcher shards (each a full ``MultiReplicaSystem``).
        shard_key: ``"hash"`` routes on the adapter id (base-model
            requests fall back to the request id), ``"tenant"`` on the
            tenant id — pinning a tenant's adapters to one shard's cache.
            Requests missing the chosen key fall back down the chain
            (tenant -> adapter -> request id), so routing is always total.
        spill: Offer an arrival whose home shard cannot admit immediately
            to the least-loaded sibling with headroom (cross-shard load
            shedding).  Off, arrivals always queue/shed at home.
        steal: Let a shard with fresh headroom pull queued work from
            siblings backlogged by at least :data:`STEAL_THRESHOLD` (work
            stealing).  Off, queues drain only locally.
    """

    n_shards: int = 2
    shard_key: str = "hash"
    spill: bool = True
    steal: bool = True

    SHARD_KEYS = ("hash", "tenant")

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.shard_key not in self.SHARD_KEYS:
            raise ValueError(
                f"unknown shard_key {self.shard_key!r}; "
                f"pick from {self.SHARD_KEYS}")


@dataclass
class RegionStats:
    """Region-router telemetry (shard routing, spills, steals)."""

    arrivals: int = 0            # every request offered to the region
    cross_shard_spills: int = 0  # arrivals served away from their home shard
    steals: int = 0              # queued requests pulled by a sibling shard
    routed: list = field(default_factory=list)  # arrivals landed per shard


class ServingRegion:
    """D dispatcher shards on one clock, behind a thin region router.

    Build with :meth:`build`; drive with :meth:`run_trace` (or schedule
    :meth:`dispatch` per arrival on the shared clock).  The router's part
    of an arrival is O(1) in the fleet: it hashes to a home shard, and that
    shard's dispatcher picks within its own slice only (through its count
    heap under ``least_loaded``, by a scan of the slice otherwise).
    """

    def __init__(self, systems: list[MultiReplicaSystem],
                 config: RegionConfig, sim: Simulator) -> None:
        if len(systems) != config.n_shards:
            raise ValueError(
                f"got {len(systems)} shard systems for "
                f"n_shards={config.n_shards}")
        self.systems = systems
        self.config = config
        self.sim = sim
        self.stats = RegionStats(routed=[0] * config.n_shards)
        #: Guards the steal loop against re-entry: accepting a stolen
        #: request can finish work synchronously in degenerate tests and
        #: re-fire the capacity hook mid-steal.
        self._stealing = False
        #: Observability hook (see repro.obs): ``None`` keeps every
        #: spill/steal hook site a bare attribute check.
        self._tracer = None
        if config.steal and config.n_shards > 1:
            for index, system in enumerate(self.systems):
                system.cluster.on_capacity(
                    lambda thief=index: self._steal_into(thief))

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` region-wide: shard ``i``'s
        dispatcher lands on track ``i + 1`` and its replicas on tids
        ``1000 * (i + 1) + index``, so the Perfetto view groups every
        replica under its shard.  Spill/steal decisions are annotated on
        the shards they move work between."""
        self._tracer = tracer
        for index, system in enumerate(self.systems):
            system.attach_tracer(tracer, shard=index)

    def attach_metrics(self, registry) -> None:
        """Register every shard's gauges on ``registry``, namespaced
        ``s0_``, ``s1_``, ... (one registry, one merged timeseries)."""
        for index, system in enumerate(self.systems):
            system.cluster.attach_metrics(registry, prefix=f"s{index}_")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, preset: str, n_replicas: Optional[int] = None,
              dispatch_policy: str = "least_loaded", *,
              region: Optional[RegionConfig] = None,
              seed: int = 0, **build_kwargs) -> "ServingRegion":
        """Build ``region.n_shards`` dispatcher shards on one shared clock.

        ``n_replicas`` is the *per-shard* fleet size; every other keyword
        is forwarded to each shard's
        :meth:`MultiReplicaSystem.build <repro.serving.replica.MultiReplicaSystem.build>`
        unchanged (``autoscale``, ``slo_policy``, ``registry``, ...).
        Shard ``i`` seeds at ``seed + i * SHARD_SEED_STRIDE`` so its
        dispatch RNG and per-replica streams are decorrelated from its
        siblings'; shard 0 keeps ``seed`` itself.
        """
        config = region if region is not None else RegionConfig()
        sim = Simulator()
        systems = [
            MultiReplicaSystem.build(
                preset, n_replicas=n_replicas,
                dispatch_policy=dispatch_policy, sim=sim,
                seed=seed + index * SHARD_SEED_STRIDE, **build_kwargs)
            for index in range(config.n_shards)]
        return cls(systems, config, sim)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def dispatch(self, request) -> Optional[int]:
        """Route one arrival: hash to its home shard, spilling to the
        least-loaded admitting sibling when the home shard would queue or
        shed it.  Returns the home (or spill-target) shard index; the
        request may still be queued or shed *within* that shard."""
        self.stats.arrivals += 1
        home = self._shard_of(request)
        if self.config.spill and self.config.n_shards > 1 \
                and not self.systems[home].cluster.can_admit():
            target = self._spill_target(home)
            if target is not None:
                self.stats.cross_shard_spills += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "spill", self.sim.now, home + 1,
                        request_id=request.request_id,
                        from_shard=home, to_shard=target)
                self.stats.routed[target] += 1
                self.systems[target].cluster.dispatch(request)
                return target
        self.stats.routed[home] += 1
        self.systems[home].cluster.dispatch(request)
        if self.config.steal and self.config.n_shards > 1 and \
                self.systems[home].cluster.queue_len() >= STEAL_THRESHOLD:
            # A fully idle sibling generates no capacity events of its own
            # (nothing in flight means nothing ever finishes there), so a
            # backlog crossing the steal threshold prods the least-loaded
            # admitting sibling to pull queued work now.
            target = self._spill_target(home)
            if target is not None:
                self._steal_into(target)
        return home

    def _shard_of(self, request) -> int:
        """Home shard of a request: a multiplicative hash of its routing
        key.  ``shard_key="tenant"`` keys on the tenant id, falling back
        to the adapter id and then the request id when absent (routing
        must be total); ``"hash"`` skips straight to the adapter chain."""
        key = None
        if self.config.shard_key == "tenant":
            key = request.tenant_id
        if key is None:
            key = request.adapter_id
        if key is None:
            key = request.request_id
        return ((key * _HASH_MULT) & _HASH_MASK) % self.config.n_shards

    def _spill_target(self, home: int) -> Optional[int]:
        """Least-loaded sibling shard that can admit immediately (ties
        break to the lowest shard index), or ``None`` when every sibling
        is full too — the arrival then queues/sheds at home, exactly as
        it would without a region."""
        best: Optional[int] = None
        best_load = 0
        for index, system in enumerate(self.systems):
            if index == home:
                continue
            cluster = system.cluster
            if not cluster.can_admit():
                continue
            load = cluster.total_in_flight()
            if best is None or load < best_load:
                best, best_load = index, load
        return best

    # ------------------------------------------------------------------ #
    # Work stealing
    # ------------------------------------------------------------------ #
    def _steal_into(self, thief: int) -> None:
        """Pull queued work into shard ``thief`` while it has headroom and
        some sibling's backlog reaches :data:`STEAL_THRESHOLD` (the donor is
        the most-backlogged sibling; ties break to the lowest index)."""
        if self._stealing:
            return
        self._stealing = True
        try:
            cluster = self.systems[thief].cluster
            while cluster.can_admit():
                donor: Optional[int] = None
                backlog = STEAL_THRESHOLD - 1  # strict > enforces it
                for index, system in enumerate(self.systems):
                    if index == thief:
                        continue
                    queued = system.cluster.queue_len()
                    if queued > backlog:
                        donor, backlog = index, queued
                if donor is None:
                    return
                entry = self.systems[donor].cluster.donate_queued()
                if entry is None:
                    return  # defensive: the donor's queue emptied under us
                self.stats.steals += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "steal", self.sim.now, thief + 1,
                        request_id=entry[0].request_id,
                        donor=donor, thief=thief)
                cluster.accept_stolen(entry)
        finally:
            self._stealing = False

    # ------------------------------------------------------------------ #
    # Running and accounting
    # ------------------------------------------------------------------ #
    def run_trace(self, requests, horizon: Optional[float] = None) -> None:
        """Route every arrival through the region router and run.

        Arrivals are fed lazily to ``dispatch``, one pending at a time (see
        :meth:`Simulator.feed`)."""
        last_arrival = self.sim.feed(requests, self.dispatch)
        for system in self.systems:
            system.start(last_arrival, horizon)
        self.sim.run(until=horizon)

    def all_requests(self) -> list[Request]:
        """Every arrival across every shard (dispatched, still queued, or
        shed) — region accounting must not lose any of them."""
        return [request for system in self.systems
                for request in system.all_requests()]

    def summary(self, **kwargs) -> RunSummary:
        """Region-wide :class:`RunSummary` with shard telemetry in
        ``extra``: per-shard routed arrivals and shed counts, the router's
        spill and steal totals, cross-shard queue-handoff counts, and the
        routed-arrival imbalance (max/mean over shards).  With a tenant
        fairness policy on the shards, the per-tenant block (attainment
        spread, Jain index, quota work) is computed region-wide — each
        tenant's ledgers merged across every shard its requests touched
        (spill and steal move work between shards, so only the merged view
        is conserved)."""
        requests = self.all_requests()
        summary = summarize_run(requests, **kwargs)
        routed = list(self.stats.routed)
        mean_routed = sum(routed) / len(routed)
        summary.extra.update(
            region_shards=self.config.n_shards,
            region_arrivals=self.stats.arrivals,
            shard_arrivals=routed,
            shard_imbalance=(
                max(routed) / mean_routed if mean_routed > 0
                else float("nan")),
            cross_shard_spills=self.stats.cross_shard_spills,
            cross_shard_steals=self.stats.steals,
            shard_shed=[system.cluster.stats.shed
                        for system in self.systems],
            shard_donated=[system.cluster.stats.donated
                           for system in self.systems],
            shard_stolen=[system.cluster.stats.stolen
                          for system in self.systems],
        )
        if any(system.cluster.tenancy is not None
               for system in self.systems):
            slo_policy = self.systems[0].slo_policy
            tenant_block(
                summary.extra, requests,
                [system.cluster.stats.tenants for system in self.systems],
                warmup=kwargs.get("warmup", 0.0),
                attained=(slo_policy.attained if slo_policy is not None
                          else None))
        return summary
