"""Elastic fleet control plane: autoscaling and observed-rate capability.

The data-parallel cluster layer (PR 1/2) treats replica count as a constant;
production serving stacks treat it as a *controlled variable*.  This module
supplies the two controllers that make the fleet elastic:

* :class:`Autoscaler` — a simulated control loop evaluated every
  ``tick_interval`` seconds.  It scales **out** on sustained admission
  pressure (shed rate over the last tick window, or the dispatcher's
  estimated queue wait) and **in** on sustained idleness (low batch
  utilization with an empty global queue), within ``[min_replicas,
  max_replicas]``, with a cooldown between scale events and full event
  accounting.  Scale-out provisions replicas through a caller-supplied
  factory callback (cold-start delays apply before the newcomer joins the
  dispatch set); scale-in prefers cancelling still-cold replicas, then
  drains the least-loaded active one (draining replicas finish their
  in-flight work but accept nothing new).

  In **predictive mode** (``mode="predictive"``) the loop additionally
  feeds every tick's arrival count into an
  :class:`~repro.predictor.load_forecast.ArrivalRateForecaster` and, on
  ticks where the reactive signals are quiet, converts the forecast at
  ``now + forecast_horizon`` into a target replica count via the fleet's
  *observed* per-replica service rate (the
  :class:`ObservedCapabilityEstimator` below).  When the target exceeds
  the fleet, scale-out fires *ahead* of the demand — the horizon defaults
  to the full cold-start latency plus one tick, so a predicted burst meets
  warm replicas instead of a provisioning delay of shed requests.  The
  reactive path stays intact as the safety net (the effective target is
  the max of both), scale-in remains reactive-only, and a reactive-mode
  controller is bit-for-bit unaffected.

* :class:`ObservedCapabilityEstimator` — replaces spec-derived
  ``capability()`` routing weights with an EWMA of each replica's *observed*
  service rate.  Spec weights (compute x HBM bandwidth) are wrong whenever
  the binding resource is something else — a PCIe-bound adapter workload
  serves no faster on an A100 than an A40 — and newly warmed replicas have
  no history at all.  The estimator measures inter-finish intervals per
  replica (same-timestamp finishes count as one drain event; idle gaps are
  excluded) and falls back to a spec prior *calibrated into observed-rate
  units* for cold replicas, so a fresh scale-out replica is offered a
  spec-proportional share of the measured fleet rate until it has history
  of its own.

Neither class imports the cluster or the replica module: both operate on
duck-typed handles (``is_active`` / ``in_flight()`` / ...), which keeps the
dependency graph acyclic (``replica`` -> ``autoscaler``, never back).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.predictor.load_forecast import ArrivalRateForecaster

#: Scale-out pressure: a tick whose share of shed arrivals exceeds this
#: counts as pressured.
SHED_RATE_THRESHOLD = 0.01
#: Scale-in signal: with an empty global queue and no sheds, a tick whose
#: mean batch utilization across active replicas is below this counts as
#: idle.
IDLE_UTILIZATION = 0.25
#: Time constant (seconds) of the capability estimator's time-weighted
#: service-rate average.
CAPABILITY_TAU = 20.0
#: Rate samples after which a replica's weight is its observed rate alone;
#: before that it blends toward the calibrated spec prior.
CAPABILITY_MIN_SAMPLES = 8


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the simulated autoscaling control loop.

    Attributes:
        min_replicas: Lower fleet bound; scale-in never goes below it
            (draining replicas do not count — they are on their way out).
        max_replicas: Upper bound on concurrently *held* GPUs; scale-out
            never exceeds it counting provisioning replicas (so pressure
            cannot double-provision during a cold start) **and** draining
            ones (still billed until their last finish).
        tick_interval: Control-loop period in simulated seconds.
        provision_delay: Cold-start delay a new replica pays in
            PROVISIONING before it joins the dispatch set.
        queue_wait_threshold: Optional second pressure signal besides a
            shed rate above :data:`SHED_RATE_THRESHOLD`: the dispatcher's
            estimated queue wait (seconds) above which a tick counts as
            pressured even without sheds (useful without an SLO policy).
            ``None`` disables it.
        sustain_ticks: Consecutive pressured ticks required before a
            scale-out fires — one bursty tick is not a trend.
        idle_sustain_ticks: Consecutive idle ticks required before a
            scale-in fires.  Defaults to ``sustain_ticks``; production
            controllers set it higher (scale out fast, scale in slow) so a
            short lull between bursts does not tear the fleet down.
        cooldown: Minimum simulated seconds between scale events *in the
            same direction*, so the controller observes the effect of one
            action before repeating it.  A scale-in never delays the next
            scale-out (and vice versa) — blocking an urgent scale-out on a
            recent scale-in is the classic flapping pathology.
        scale_out_step: Replicas provisioned per scale-out event.  A
            scale-in event drains one replica.
        mode: ``"reactive"`` (default — scale-out only on observed
            pressure) or ``"predictive"`` (additionally scale out ahead of
            *forecast* demand; see the module docstring).  Scale-in is
            reactive in both modes.
        self_heal: Replace crashed replicas (FAILED handles) as soon as the
            next tick observes the loss, *outside* the scale-out cooldown
            and sustain logic: failure replacement restores capacity the
            fleet already owned, so throttling it like demand-driven
            scale-out would stack a detection delay on top of the cold
            start.  Replacements respect ``max_replicas``.  With no
            failures ever injected the knob is inert, in both modes, bit
            for bit.
        forecast_window: Trailing seconds of arrival-rate history the
            forecaster keeps (predictive mode only).
        forecast_horizon: How far ahead the forecast targets, in seconds.
            ``None`` derives ``provision_delay + tick_interval`` — the
            earliest a replica provisioned *now* could serve, so scale-out
            leads demand by the full cold start.
        forecast_cycle: Optional workload period in seconds; enables the
            forecaster's seasonal phase histogram so bursts seen in
            previous cycles are predicted before they re-arrive.
        target_utilization: Fraction of the measured per-replica service
            rate the predictive target plans to, in (0, 1]: the predictive
            replica count is ``ceil(forecast_rate / (service_rate *
            target_utilization))``.  Below 1.0 leaves headroom for forecast
            error and queueing slack.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    tick_interval: float = 5.0
    provision_delay: float = 10.0
    queue_wait_threshold: Optional[float] = None
    sustain_ticks: int = 2
    idle_sustain_ticks: Optional[int] = None
    cooldown: float = 20.0
    scale_out_step: int = 1
    mode: str = "reactive"
    self_heal: bool = True
    forecast_window: float = 30.0
    forecast_horizon: Optional[float] = None
    forecast_cycle: Optional[float] = None
    target_utilization: float = 0.8

    MODES = ("reactive", "predictive")

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})")
        if self.tick_interval <= 0:
            raise ValueError(f"tick_interval must be > 0, got {self.tick_interval}")
        if self.provision_delay < 0:
            raise ValueError("cold-start delays must be >= 0")
        if self.sustain_ticks < 1:
            raise ValueError(f"sustain_ticks must be >= 1, got {self.sustain_ticks}")
        if self.idle_sustain_ticks is not None and self.idle_sustain_ticks < 1:
            raise ValueError(
                f"idle_sustain_ticks must be >= 1, got {self.idle_sustain_ticks}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.scale_out_step < 1:
            raise ValueError(
                f"scale_out_step must be >= 1, got {self.scale_out_step}")
        if self.mode not in self.MODES:
            raise ValueError(
                f"unknown autoscale mode {self.mode!r}; pick from {self.MODES}")
        if self.forecast_window <= 0:
            raise ValueError(
                f"forecast_window must be > 0, got {self.forecast_window}")
        if self.forecast_horizon is not None and self.forecast_horizon <= 0:
            raise ValueError(
                f"forecast_horizon must be > 0, got {self.forecast_horizon}")
        if self.forecast_cycle is not None and self.forecast_cycle <= 0:
            raise ValueError(
                f"forecast_cycle must be > 0, got {self.forecast_cycle}")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1], got "
                f"{self.target_utilization}")

    @property
    def effective_idle_sustain(self) -> int:
        return self.idle_sustain_ticks if self.idle_sustain_ticks is not None \
            else self.sustain_ticks

    @property
    def effective_forecast_horizon(self) -> float:
        """Forecast lead time: explicit, or the full cold-start latency plus
        one control-loop tick — the soonest a replica provisioned on this
        tick could possibly serve."""
        if self.forecast_horizon is not None:
            return self.forecast_horizon
        return self.provision_delay + self.tick_interval


class Autoscaler:
    """Admission-aware replica-count controller on a simulated tick.

    ``provision`` is a callback ``(*, provision_delay) -> handle`` that
    builds one replica on the shared clock and registers it
    with the cluster (see ``MultiReplicaSystem.provision_replica``).  The
    autoscaler never touches engines directly: it reads cluster-level
    signals and issues provision/drain commands.
    """

    def __init__(self, sim, cluster, config: AutoscaleConfig,
                 provision: Callable[..., Any]) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self._provision = provision
        #: Full scale-event log: time, action, replica indices, fleet size
        #: after the event, and the signal values that triggered it.
        self.events: list[dict] = []
        self.scale_out_count = 0
        self.scale_in_count = 0
        #: Scale-out events triggered by the forecast rather than observed
        #: pressure (always 0 in reactive mode).
        self.predictive_scale_out_count = 0
        #: Failure-replacement events (self-healing; always 0 fault-free).
        self.self_heal_count = 0
        self.ticks = 0
        self.peak_fleet = 0
        #: The arrival-rate forecaster driving predictive scale-out; built
        #: from the config so two same-config controllers forecast
        #: identically.  ``None`` in reactive mode.
        self.forecaster: Optional[ArrivalRateForecaster] = (
            ArrivalRateForecaster(window=config.forecast_window,
                                  cycle=config.forecast_cycle)
            if config.mode == "predictive" else None)
        self._pressure_ticks = 0
        self._idle_ticks = 0
        self._last_arrivals = 0
        self._last_shed = 0
        self._last_finishes = 0
        self._last_migrations = 0
        self._last_out_time: Optional[float] = None
        self._last_in_time: Optional[float] = None
        self._last_eval_time: Optional[float] = None
        #: Highest per-active-replica fleet throughput over any one tick —
        #: the demonstrated service capacity the predictive target divides
        #: demand by.  Tick-window averaging matters: instantaneous finish
        #: rates spike when a batch drains in a cluster of near-simultaneous
        #: completions, and those spikes are not sustainable capacity.
        self._peak_service_rate: Optional[float] = None
        #: Crashed replicas already seen (and replaced) by self-healing.
        self._failures_seen = 0
        #: Lifecycle-log read position for `_serving_count` (entries
        #: before it were already credited to a previous tick window).
        self._log_cursor = 0
        self._until: Optional[float] = None
        self._tick_event = None
        #: Observability hook (see repro.obs): ``None`` keeps the
        #: ``_record`` hook site a bare attribute check.
        self._tracer = None
        self._trace_tid = 1

    def attach_tracer(self, tracer, tid: int = 1) -> None:
        """Mirror every scale event as an ``autoscale`` instant on the
        dispatcher track ``tid`` of the attached tracer."""
        self._tracer = tracer
        self._trace_tid = tid

    # ------------------------------------------------------------------ #
    # Control-loop scheduling
    # ------------------------------------------------------------------ #
    def start(self, until: Optional[float] = None) -> None:
        """Begin ticking.  ``until`` bounds the loop (typically the last
        arrival time or the run horizon); past it, ticks continue only while
        the cluster still holds queued or in-flight work, then stop so the
        event heap can drain."""
        self._until = until
        self._last_eval_time = self.sim.now
        self.peak_fleet = max(self.peak_fleet, self.cluster.holding_count())
        self._schedule()

    def stop(self) -> None:
        """Cancel the pending tick (ends the control loop)."""
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None

    def _schedule(self) -> None:
        self._tick_event = self.sim.schedule(self.config.tick_interval, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        self.ticks += 1
        self._evaluate()
        self.peak_fleet = max(self.peak_fleet, self.cluster.holding_count())
        if self._should_continue():
            self._schedule()

    def _should_continue(self) -> bool:
        if self._until is not None and \
                self.sim.now + self.config.tick_interval <= self._until:
            return True
        return self.cluster.has_pending_work()

    # ------------------------------------------------------------------ #
    # Signals and decisions
    # ------------------------------------------------------------------ #
    def _evaluate(self) -> None:
        cfg = self.config
        stats = self.cluster.stats
        d_arrivals = stats.arrivals - self._last_arrivals
        d_shed = stats.shed - self._last_shed
        d_finishes = stats.finishes - self._last_finishes
        d_migrations = stats.migrations - self._last_migrations
        self._last_arrivals = stats.arrivals
        self._last_shed = stats.shed
        self._last_finishes = stats.finishes
        self._last_migrations = stats.migrations
        if self.forecaster is not None:
            # One rate bucket per tick.  A zero-width bucket (a tick landing
            # on the start timestamp) carries no rate and is skipped.  The
            # forecaster sees *fresh* demand only: migration re-offers after
            # a crash re-enter the dispatcher's arrival counter, but they
            # are recycled work, not an arrival-rate spike to extrapolate.
            now = self.sim.now
            if self._last_eval_time is not None and now > self._last_eval_time:
                self.forecaster.observe(self._last_eval_time, now,
                                        d_arrivals - d_migrations)
                self._observe_throughput(d_finishes, now - self._last_eval_time)
            self._last_eval_time = now
        shed_rate = d_shed / d_arrivals if d_arrivals > 0 else 0.0
        queue_wait = self.cluster.estimated_queue_wait() \
            if self.cluster.queue_len() > 0 else 0.0
        utilization = self._utilization()

        # Self-healing runs before the demand logic and outside its
        # cooldown/sustain throttles: a crash is not a demand signal, it is
        # capacity the fleet already owned vanishing, and every tick spent
        # "sustaining" it is a tick of elevated shed.  Fault-free fleets
        # never observe a FAILED handle, so this path is inert for them.
        if cfg.self_heal:
            failed = self.cluster.failed_count()
            if failed > self._failures_seen:
                self._heal(failed - self._failures_seen,
                           shed_rate, queue_wait, utilization)
                self._failures_seen = failed

        pressure = shed_rate > SHED_RATE_THRESHOLD
        if cfg.queue_wait_threshold is not None:
            pressure = pressure or queue_wait > cfg.queue_wait_threshold
        idle = (not pressure and self.cluster.queue_len() == 0 and d_shed == 0
                and utilization < IDLE_UTILIZATION)
        if pressure:
            self._pressure_ticks += 1
            self._idle_ticks = 0
        elif idle:
            self._idle_ticks += 1
            self._pressure_ticks = 0
        else:
            self._pressure_ticks = 0
            self._idle_ticks = 0

        scaled = False
        if pressure and self._pressure_ticks >= cfg.sustain_ticks \
                and self._cooldown_ok(self._last_out_time):
            scaled = self._scale_out(shed_rate, queue_wait, utilization)
        elif idle and self._idle_ticks >= cfg.effective_idle_sustain \
                and self._cooldown_ok(self._last_in_time):
            scaled = self._scale_in(shed_rate, queue_wait, utilization)
        # Predictive scale-out: on ticks where the reactive path did not
        # *act* (at most one scale event per tick; an attempt that no-ops at
        # a fleet bound does not count — an idle fleet pinned at
        # min_replicas is exactly the lull predictive mode exists for), ask
        # the forecast whether demand a cold-start away exceeds what the
        # fleet can serve, and provision ahead of it.  The reactive path
        # above is untouched — on any tick where it acts, it wins — so the
        # effective scale-out target is the max of both.
        if not scaled and self.forecaster is not None \
                and self._cooldown_ok(self._last_out_time):
            self._evaluate_predictive(shed_rate, queue_wait, utilization)

    def _cooldown_ok(self, last_time: Optional[float]) -> bool:
        return (last_time is None
                or self.sim.now - last_time >= self.config.cooldown)

    # ------------------------------------------------------------------ #
    # Predictive scale-out
    # ------------------------------------------------------------------ #
    def _evaluate_predictive(self, shed_rate, queue_wait, utilization) -> None:
        cfg = self.config
        horizon = cfg.effective_forecast_horizon
        if self._until is not None and self.sim.now + horizon > self._until:
            # The predicted demand lands past the run's arrival window:
            # provisioning for it would bill replicas that never serve.
            return
        forecast = self.forecaster.forecast(self.sim.now, horizon)
        # Plan to the *lower* confidence band: pre-provisioning is a bet paid
        # in replica-seconds, so it is only placed on demand the forecaster
        # is confident about — a noisy trend extrapolation has a wide band
        # and a low floor, a burst seen in previous cycles a high one.
        # Underestimates cost nothing extra: the reactive net still fires.
        #
        # And only on predicted demand *growth*: a fleet keeping up with a
        # steady load demonstrates exactly that load as its throughput, so
        # dividing an unchanged forecast by it would inflate the target by
        # 1/target_utilization forever.  Demand already here is the reactive
        # controller's business; the forecast's job is what comes next.
        if forecast.lower <= self.forecaster.observed_rate():
            return
        service_rate = self._per_replica_service_rate()
        if service_rate is None:
            return  # no measured capacity yet: the reactive net owns this
        fleet = self.cluster.fleet_size()
        want = self._scale_out_deficit(forecast.lower, service_rate, fleet)
        if want <= 0:
            return
        added = self._provision_replicas(want)
        if not added:
            return
        self.predictive_scale_out_count += 1
        self._record(
            "scale_out", added, shed_rate, queue_wait, utilization,
            reason="predictive",
            forecast_rate=round(forecast.rate, 6),
            forecast_lower=round(forecast.lower, 6),
            forecast_upper=round(forecast.upper, 6),
            forecast_basis=forecast.basis,
            forecast_horizon=round(horizon, 6),
            service_rate=round(service_rate, 6),
            target_replicas=fleet + want,
        )

    def _scale_out_deficit(self, demand_rate: float, service_rate: float,
                           fleet: int) -> int:
        """Replicas to add so the fleet serves ``demand_rate`` at
        ``target_utilization``, sized by the demonstrated fleet-mean
        per-replica capacity."""
        target = math.ceil(
            demand_rate / (service_rate * self.config.target_utilization))
        return target - fleet

    def _observe_throughput(self, d_finishes: int, dt: float) -> None:
        """Track the peak per-replica fleet throughput per tick.

        The finish counter is cluster-wide, so the denominator must count
        every replica that could have contributed during the tick: the
        active set, DRAINING replicas (still emptying), and replicas that
        *retired or failed within this tick* after serving (a drainer
        flushing its last batch and retiring on its final finish, a replica
        serving half the tick before crashing).  Counting fewer would
        credit their work to the survivors, and the peak ratchet would
        latch that phantom per-replica capacity forever.
        """
        serving = self._serving_count(self.sim.now - dt)
        if d_finishes <= 0 or dt <= 0 or not serving:
            return
        rate = d_finishes / dt / serving
        if self._peak_service_rate is None or rate > self._peak_service_rate:
            self._peak_service_rate = rate

    def _serving_count(self, tick_start: float) -> int:
        """Replicas credited with this tick window's finishes: the
        ACTIVE/DRAINING cache, plus replicas that retired or failed
        *within* the window after serving.

        This is O(serving + transitions-this-tick): the cluster's
        ``serving_indices`` cache answers the live set, and the
        ``lifecycle_log`` entries since the previous tick (a cursor, not a
        sweep) surface the mid-tick exits.  Terminal states are disjoint
        from the serving cache, so nothing is counted twice.
        """
        handles = self.cluster.handles
        log = self.cluster.lifecycle_log
        ended = sum(
            1 for time, index, state in log[self._log_cursor:]
            if time > tick_start and state in ("retired", "failed")
            and handles[index].active_at is not None)
        self._log_cursor = len(log)
        return len(self.cluster.serving_indices()) + ended

    def _per_replica_service_rate(self) -> Optional[float]:
        """Demonstrated per-replica service capacity, or ``None`` before
        any tick has observed finishes.

        The unit converting a forecast arrival rate into a replica count
        must be *capacity*, not current throughput: a lightly loaded fleet
        finishes exactly as fast as work arrives, so dividing a burst
        forecast by the lull throughput would over-provision precisely when
        the fleet is idlest.  The peak one-tick throughput per active
        replica is the capacity the fleet has actually demonstrated (the
        first burst calibrates it for every later one).
        """
        return self._peak_service_rate

    def _utilization(self) -> float:
        """Mean batch-fill fraction across active replicas (0 when none).

        O(active) via the cluster's ``active_indices`` cache.
        """
        fractions = []
        for index in self.cluster.active_indices():
            handle = self.cluster.handles[index]
            capacity = handle.engine.config.max_batch_size
            if capacity:
                fractions.append(min(1.0, handle.in_flight() / capacity))
            else:
                fractions.append(1.0 if handle.in_flight() > 0 else 0.0)
        return sum(fractions) / len(fractions) if fractions else 0.0

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #
    def _add_replicas(self, want: int) -> list:
        """Provision up to ``want`` replicas; returns their indices ([]
        when the holding ceiling left no room).

        Bounded by ``max_replicas`` over GPUs actually held (draining
        replicas included): a slow drain must not let pressure push
        concurrent holding past the cap.
        """
        cfg = self.config
        room = cfg.max_replicas - self.cluster.holding_count()
        return [self._provision(provision_delay=cfg.provision_delay).index
                for _ in range(min(want, room))]

    def _provision_replicas(self, want: int) -> list:
        """Scale out by up to ``want`` replicas (:meth:`_add_replicas`) and
        run the shared scale-out bookkeeping; returns the new indices.

        A scale-out — forecast-driven ones typically fire in a lull — also
        restarts the idle streak: one more idle tick could otherwise
        trigger a scale-in that cancels the still-cold replicas just
        provisioned (scale-in victimizes cold replicas first).
        """
        added = self._add_replicas(want)
        if added:
            self.scale_out_count += 1
            self._pressure_ticks = 0
            self._idle_ticks = 0
            self._last_out_time = self.sim.now
        return added

    def _scale_out(self, shed_rate, queue_wait, utilization) -> bool:
        """Reactive scale-out; True when replicas were actually added."""
        added = self._provision_replicas(self.config.scale_out_step)
        if not added:
            return False
        self._record("scale_out", added, shed_rate, queue_wait, utilization)
        return True

    def _heal(self, count, shed_rate, queue_wait, utilization) -> None:
        """Replace ``count`` crashed replicas (self-healing).

        Shares :meth:`_add_replicas` with scale-out but not its
        bookkeeping: failure replacement must not consume the scale-out
        cooldown (an urgent demand-driven scale-out right after a crash
        stays legal) nor reset the pressure streak (the crash does not
        erase the shed the controller was watching).  It does reset the
        idle streak — the replacements are cold, and an immediate scale-in
        would victimize exactly them.  Capacity that ``max_replicas``
        leaves no room to replace here is re-acquired by the reactive path
        under pressure.
        """
        added = self._add_replicas(count)
        if not added:
            return
        self.self_heal_count += 1
        self._idle_ticks = 0
        self._record("self_heal", added, shed_rate, queue_wait, utilization,
                     reason="failure_replacement", failures=count)

    def _scale_in(self, shed_rate, queue_wait, utilization) -> bool:
        """Reactive scale-in of one replica; True when one was drained."""
        candidates = [h for h in self.cluster.handles if h.in_fleet]
        if len(candidates) <= self.config.min_replicas:
            return False
        # Cancel a still-cold replica first (it never served), else drain
        # the least-loaded active one; newest (highest index) breaks ties so
        # scale-out replicas retire before the original fleet.
        victim = min(
            candidates,
            key=lambda h: (0 if h.is_provisioning else 1, h.in_flight(),
                           -h.index))
        self.cluster.drain_replica(victim.index)
        self.scale_in_count += 1
        self._idle_ticks = 0
        self._last_in_time = self.sim.now
        self._record("scale_in", [victim.index],
                     shed_rate, queue_wait, utilization)
        return True

    def _record(self, action, indices, shed_rate, queue_wait, utilization,
                **extra) -> None:
        """Append one scale event.  ``extra`` carries the predictive
        diagnostics (forecast, service rate, target); reactive events take
        none, so their records stay byte-identical across modes."""
        self.events.append(dict(
            time=self.sim.now,
            action=action,
            replicas=list(indices),
            fleet_size=self.cluster.fleet_size(),
            holding=self.cluster.holding_count(),
            active=self.cluster.active_count(),
            shed_rate=round(shed_rate, 6),
            queue_wait=round(queue_wait, 6),
            utilization=round(utilization, 6),
            **extra,
        ))
        if self._tracer is not None:
            self._tracer.instant(
                "autoscale", self.sim.now, self._trace_tid,
                action=action, replicas=list(indices),
                fleet_size=self.cluster.fleet_size())


class ObservedCapabilityEstimator:
    """Routing weights from observed per-replica service rates.

    Each replica's service rate is a **time-weighted** exponential average of
    its instantaneous finish rate: for a gap of ``dt`` seconds carrying ``k``
    finishes (finishes sharing one timestamp — a batch completing in one
    engine iteration — count as one drain event of size ``k``), the sample
    is ``k / dt`` with weight ``1 - exp(-dt / CAPABILITY_TAU)``.
    Time-weighting matters: a per-sample EWMA would give one sparse
    singleton finish the same vote as a ten-finish burst, biasing the
    estimate toward whichever replica happens to trickle (inspection bias)
    — weighting by elapsed time makes the average converge to
    finishes-per-busy-second.  A finish that leaves the engine idle closes
    the measurement window: the gap to the replica's next finish would
    include idle time, which is absence of work, not slowness.

    Cold replicas (fewer than ``CAPABILITY_MIN_SAMPLES`` rate samples)
    blend toward a spec prior *calibrated into observed-rate units*: the
    fleet-wide ratio of measured rates to spec capabilities converts the
    prior of an unmeasured replica into an expected rate, so a newly warmed
    scale-out replica is offered a spec-proportional share of traffic from
    its first moment.  Before any replica has history, weights reduce to the raw spec
    priors — exactly the legacy spec-derived behaviour.
    """

    def __init__(self) -> None:
        self._prior: dict[int, float] = {}
        self._rate: dict[int, Optional[float]] = {}
        self._samples: dict[int, int] = {}
        self._last_finish: dict[int, Optional[float]] = {}
        self._batch: dict[int, int] = {}
        #: Indices with at least one rate sample, ascending — the
        #: calibration sum in :meth:`weights` iterates this instead of
        #: scanning every replica ever registered.  Ascending order matches
        #: the legacy full-scan dict order (priors register in index
        #: order), so the float sums are bit-identical.
        self._sampled: list[int] = []

    def register(self, index: int, spec_capability: float) -> None:
        """Add a replica with its spec-derived prior (arbitrary units)."""
        if spec_capability <= 0:
            raise ValueError(
                f"spec capability must be > 0, got {spec_capability}")
        if self._rate.get(index) is not None:
            # Re-registration resets the history; drop the stale sample
            # marker so the calibration sum does not read a None rate.
            self._sampled.remove(index)
        self._prior[index] = float(spec_capability)
        self._rate[index] = None
        self._samples[index] = 0
        self._last_finish[index] = None
        self._batch[index] = 0

    def observe_finish(self, index: int, now: float, *, idle: bool = False) -> bool:
        """Record one finish event on replica ``index`` at time ``now``.

        ``idle=True`` means the finish left the engine with no in-flight
        work; the measurement window closes so the idle gap is not mistaken
        for service time.  Returns True when a new rate sample landed (the
        estimate changed) — same-timestamp finishes only grow the pending
        batch, so callers can skip recomputing weights for them.
        """
        sampled = False
        last = self._last_finish[index]
        if last is None:
            self._last_finish[index] = now
            self._batch[index] = 1
        elif now == last:
            self._batch[index] += 1
        else:
            dt = now - last
            instantaneous = self._batch[index] / dt
            weight = 1.0 - math.exp(-dt / CAPABILITY_TAU)
            prev = self._rate[index]
            if prev is None:
                self._rate[index] = instantaneous
                insort(self._sampled, index)
            else:
                self._rate[index] = \
                    (1.0 - weight) * prev + weight * instantaneous
            self._samples[index] += 1
            self._last_finish[index] = now
            self._batch[index] = 1
            sampled = True
        if idle:
            self._last_finish[index] = None
            self._batch[index] = 0
        return sampled

    def observed_rate(self, index: int) -> Optional[float]:
        """Finishes per busy second, or ``None`` with no samples yet."""
        return self._rate.get(index)

    def weights(self, indices) -> dict[int, float]:
        """Relative routing weights for ``indices`` (one pass, uncalibrated
        scale — the cluster renormalizes to mean 1.0 over the active set).

        O(sampled + len(indices)): the calibration ratio sums over the
        ``_sampled`` index list rather than sweeping every replica ever
        registered (this runs on every finish-driven weight refresh, so a
        full-history scan would grow with fleet churn, not fleet size).
        """
        sampled = self._sampled
        if sampled:
            calibration = sum(self._rate[i] for i in sampled) \
                / sum(self._prior[i] for i in sampled)
        else:
            calibration = None
        out: dict[int, float] = {}
        for i in indices:
            prior = self._prior[i]
            prior_rate = calibration * prior if calibration is not None else prior
            rate = self._rate.get(i)
            if rate is None:
                out[i] = prior_rate
            else:
                blend = min(1.0, self._samples[i] / CAPABILITY_MIN_SAMPLES)
                out[i] = blend * rate + (1.0 - blend) * prior_rate
        return out

    def weight(self, index: int) -> float:
        """One replica's weight (see :meth:`weights`)."""
        return self.weights([index])[index]
