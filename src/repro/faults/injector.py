"""Deterministic fault injection for the data-parallel serving fleet.

Production availability questions — "what does a replica crash mid-burst
cost us?", "how much does self-healing buy at a given failure rate?" —
need a *failure model*, and a reproducible one: a chaos test whose faults
move when the seed does cannot be compared across system variants.  This
module supplies both halves:

* :class:`FaultSchedule` — scripted faults at explicit simulated times
  ("crash replica 1 at t=110s"), for experiments that need one surgical
  failure in a known workload phase.
* :class:`FaultInjector` — fires faults on the shared simulator clock,
  either from a schedule or from a seeded random process (MTTF-spaced
  failures on uniformly chosen serving replicas, drawing from the same
  :class:`~repro.sim.rng.RngStreams` machinery as every other stochastic
  component, so the fault stream is independent of the arrival process and
  identical across A/B system variants).

Fault kinds (all defined on the cluster/engine layer, see
``DataParallelCluster.fail_replica`` / ``stall_replica`` and
``ServingEngine.set_rate_multiplier``):

``crash``
    The replica dies instantly: terminal FAILED state, pending engine
    events cancelled, all its work (queued, unstarted and started)
    migrated back through the normal admission path (or stranded as
    ``lost`` with ``migrate=False``).
``degrade`` / ``recover``
    A service-rate multiplier on the engine (0.5 = twice as slow).  Spec
    capability cannot see it; the ``ObservedCapabilityEstimator`` converges
    to the new rate and shifts routing weight — that convergence is the
    contract this fault exercises.
``stall``
    A transient admission outage: the replica accepts nothing for a
    window, then rejoins the dispatch set and absorbs queued work.

The injector never imports the cluster or engine modules — it drives
duck-typed surfaces only, keeping the dependency graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Protocol, Sequence

import numpy as np

#: Recognized fault kinds (``transient_stall`` is accepted as an alias of
#: ``stall`` in schedules).
FAULT_KINDS = ("crash", "degrade", "recover", "stall")


class SimClock(Protocol):
    """The slice of :class:`~repro.sim.simulator.Simulator` the injector uses."""

    now: float

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Any: ...

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Any: ...


class TracerLike(Protocol):
    """The slice of :class:`repro.obs.Tracer` the injector drives (duck-
    typed: this module never imports ``repro.obs``)."""

    def instant(self, name: str, time: float, tid: int,
                **args: object) -> Any: ...


class ReplicaLike(Protocol):
    """Lifecycle surface of a cluster replica handle."""

    @property
    def index(self) -> int: ...

    @property
    def is_active(self) -> bool: ...

    @property
    def is_draining(self) -> bool: ...

    @property
    def is_retired(self) -> bool: ...

    @property
    def is_failed(self) -> bool: ...


class ClusterLike(Protocol):
    """The fault surface of ``DataParallelCluster`` (duck-typed, no import)."""

    @property
    def handles(self) -> Sequence[ReplicaLike]: ...

    @property
    def engines(self) -> Sequence[object]: ...

    def fail_replica(self, index: int, *, migrate: bool = ...) -> Any: ...

    def stall_replica(self, index: int, duration: float) -> Any: ...


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    Attributes:
        time: Simulated time the fault fires, seconds.
        kind: One of :data:`FAULT_KINDS`.
        replica: Target replica index (must exist when the fault fires).
        magnitude: ``degrade`` only — the service-rate multiplier applied
            to the engine, in (0, 1] (``recover`` restores 1.0).
        duration: ``stall`` only — seconds the replica accepts nothing.
    """

    time: float
    kind: str
    replica: int
    magnitude: float = 0.5
    duration: float = 5.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}")
        if self.replica < 0:
            raise ValueError(f"replica index must be >= 0, got {self.replica}")
        if self.kind == "degrade" and not 0.0 < self.magnitude <= 1.0:
            raise ValueError(
                f"degrade magnitude must be in (0, 1], got {self.magnitude}")
        if self.kind == "stall" and self.duration <= 0:
            raise ValueError(
                f"stall duration must be > 0, got {self.duration}")


class FaultSchedule:
    """An ordered list of scripted :class:`FaultEvent` entries."""

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        """Parse the CLI schedule syntax.

        Comma-separated entries, colon-separated fields::

            TIME:KIND:REPLICA[:VALUE]

        where ``VALUE`` is the rate multiplier for ``degrade`` and the
        window in seconds for ``stall`` (ignored otherwise).  Example:
        ``"110:crash:1,60:degrade:0:0.5,90:recover:0,120:stall:2:5"``.
        """
        events: list[FaultEvent] = []
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            fields = entry.split(":")
            if not 3 <= len(fields) <= 4:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected "
                    "TIME:KIND:REPLICA[:VALUE]")
            try:
                time = float(fields[0])
                replica = int(fields[2])
            except ValueError:
                raise ValueError(
                    f"bad fault entry {entry!r}: TIME must be a float and "
                    "REPLICA an int") from None
            kind = fields[1].strip().lower()
            if kind == "transient_stall":
                kind = "stall"
            magnitude, duration = 0.5, 5.0
            if len(fields) == 4:
                try:
                    value = float(fields[3])
                except ValueError:
                    raise ValueError(
                        f"bad fault entry {entry!r}: VALUE must be a float"
                    ) from None
                if kind == "degrade":
                    magnitude = value
                elif kind == "stall":
                    duration = value
                else:
                    raise ValueError(
                        f"bad fault entry {entry!r}: {kind} takes no VALUE")
            events.append(FaultEvent(time=time, kind=kind, replica=replica,
                                     magnitude=magnitude, duration=duration))
        if not events:
            raise ValueError(f"empty fault schedule {text!r}")
        return cls(events)


class FaultInjector:
    """Fires replica faults on the shared simulator clock.

    Two sources, composable:

    * ``schedule`` — scripted :class:`FaultSchedule` entries, fired at
      their exact times.
    * ``mttf`` — a random failure process: inter-failure gaps drawn from
      an exponential with mean ``mttf`` seconds, each failure hitting a
      uniformly chosen *serving* (active or draining) replica.  With
      ``mttr`` unset the failure is a crash; with ``mttr`` set it is a
      transient outage (stall) whose window is exponential with mean
      ``mttr`` — the replica is repaired rather than replaced.

    ``migrate`` selects the crash recovery model (see
    ``DataParallelCluster.fail_replica``): ``True`` replays all of a dead
    replica's work, started or not, through the dispatcher; ``False`` is
    the no-recovery baseline that strands it all.

    Every fault lands in :attr:`log` (time, kind, replica, parameters) so
    experiments can line faults up against SLO timelines.
    """

    def __init__(
        self,
        cluster: ClusterLike,
        *,
        sim: Optional[SimClock] = None,
        schedule: Optional[FaultSchedule] = None,
        mttf: Optional[float] = None,
        mttr: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        migrate: bool = True,
    ) -> None:
        if mttf is not None and mttf <= 0:
            raise ValueError(f"mttf must be > 0, got {mttf}")
        if mttr is not None and mttr <= 0:
            raise ValueError(f"mttr must be > 0, got {mttr}")
        if mttr is not None and mttf is None:
            raise ValueError("mttr needs mttf (no failures to repair)")
        if mttf is not None and rng is None:
            raise ValueError("random faults (mttf) need an rng")
        self.cluster = cluster
        self._sim = sim
        self.schedule = schedule
        self.mttf = mttf
        self.mttr = mttr
        self.rng = rng
        self.migrate = migrate
        #: Every fault fired: dicts of time/kind/replica plus parameters.
        self.log: list[dict[str, object]] = []
        self.crashes = 0
        self.stalls = 0
        self.degrades = 0
        self.recovers = 0
        self._until: Optional[float] = None
        self._started = False
        #: Observability hook (see repro.obs): ``None`` keeps the ``_log``
        #: hook site a bare attribute check.
        self._tracer: Optional[TracerLike] = None
        self._trace_tid = 1

    def attach_tracer(self, tracer: TracerLike, tid: int = 1) -> None:
        """Mirror every fault-log entry as a ``fault`` instant on the
        dispatcher track ``tid`` of the attached tracer."""
        self._tracer = tracer
        self._trace_tid = tid

    # ------------------------------------------------------------------ #
    def _simulator(self) -> Optional[SimClock]:
        if self._sim is not None:
            return self._sim
        accessor = getattr(self.cluster, "_simulator", None)
        sim: Optional[SimClock] = accessor() if callable(accessor) else None
        return sim

    def start(self, until: Optional[float] = None) -> None:
        """Arm the injector: schedule scripted faults, seed the random
        process.  ``until`` bounds random failures (typically the last
        arrival time — failing replicas after the workload ends only adds
        noise to the accounting)."""
        if self._started:
            return
        self._started = True
        self._until = until
        sim = self._simulator()
        if sim is None:
            raise ValueError(
                "fault injection needs a simulated clock: pass sim= or a "
                "cluster exposing one")
        if self.schedule is not None:
            for event in self.schedule:
                sim.schedule_at(max(event.time, sim.now), self._fire, event)
        if self.mttf is not None:
            self._schedule_random_failure(sim)

    # ------------------------------------------------------------------ #
    # Scripted faults
    # ------------------------------------------------------------------ #
    def _fire(self, event: FaultEvent) -> None:
        if event.replica >= len(self.cluster.handles):
            self._log(event.time, event.kind, event.replica, skipped="no such replica")
            return
        if event.kind == "crash":
            self._crash(event.replica)
        elif event.kind == "stall":
            self._stall(event.replica, event.duration)
        elif event.kind == "degrade":
            self._set_rate(event.replica, event.magnitude, "degrade")
        else:  # recover
            self._set_rate(event.replica, 1.0, "recover")

    def _crash(self, index: int) -> None:
        handle = self.cluster.handles[index]
        if handle.is_retired or handle.is_failed:
            self._log(self._now(), "crash", index, skipped="already gone")
            return
        self.cluster.fail_replica(index, migrate=self.migrate)
        self.crashes += 1
        self._log(self._now(), "crash", index, migrate=self.migrate)

    def _stall(self, index: int, duration: float) -> None:
        handle = self.cluster.handles[index]
        if not handle.is_active:
            self._log(self._now(), "stall", index, skipped="not serving")
            return
        self.cluster.stall_replica(index, duration)
        self.stalls += 1
        self._log(self._now(), "stall", index, duration=duration)

    def _set_rate(self, index: int, multiplier: float, kind: str) -> None:
        handle = self.cluster.handles[index]
        if handle.is_retired or handle.is_failed:
            self._log(self._now(), kind, index, skipped="already gone")
            return
        engine = self.cluster.engines[index]
        setter = getattr(engine, "set_rate_multiplier", None)
        if not callable(setter):
            self._log(self._now(), kind, index, skipped="engine has no rate knob")
            return
        setter(multiplier)
        if kind == "degrade":
            self.degrades += 1
        else:
            self.recovers += 1
        self._log(self._now(), kind, index, multiplier=multiplier)

    # ------------------------------------------------------------------ #
    # Random failure process (MTTF/MTTR)
    # ------------------------------------------------------------------ #
    def _schedule_random_failure(self, sim: SimClock) -> None:
        assert self.rng is not None and self.mttf is not None
        gap = float(self.rng.exponential(self.mttf))
        when = sim.now + gap
        if self._until is not None and when > self._until:
            return  # the workload ends before the next drawn failure
        sim.schedule(gap, self._random_failure)

    def _random_failure(self) -> None:
        sim = self._simulator()
        # Target a uniformly chosen replica the fault can actually act on:
        # crashes accept anything serving (active or draining), repairable
        # outages (stalls) only active replicas — stalling a drainer is a
        # no-op on the dispatch path, which would silently lower the
        # effective fault rate below the configured MTTF.  The draws happen
        # even when no target exists, and the target pick uses a unit
        # uniform (fixed bit-stream consumption, unlike bounded integers'
        # rejection sampling) so the fault *times* stay aligned across
        # system variants whose fleet sizes diverge (paired comparisons).
        assert self.rng is not None and sim is not None
        outage = self.mttr is not None
        pool = [h.index for h in self.cluster.handles
                if h.is_active or (not outage and h.is_draining)]
        pick = self.rng.random()  # in [0, 1): floor(pick * n) < n
        duration = (float(self.rng.exponential(self.mttr))
                    if self.mttr is not None else None)
        if pool:
            index = pool[int(pick * len(pool))]
            if duration is not None:
                self._stall(index, duration)
            else:
                self._crash(index)
        else:
            self._log(self._now(), "stall" if outage else "crash",
                      -1, skipped="no eligible replica")
        self._schedule_random_failure(sim)

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        sim = self._simulator()
        return sim.now if sim is not None else 0.0

    def _log(self, time: float, kind: str, replica: int,
             **extra: object) -> None:
        entry: dict[str, object] = dict(time=time, kind=kind, replica=replica)
        entry.update(extra)
        self.log.append(entry)
        if self._tracer is not None:
            self._tracer.instant("fault", time, self._trace_tid,
                                 kind=kind, replica=replica, **extra)
