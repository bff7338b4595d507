"""Per-layer timing for the traced replay, from outside the program.

:class:`LayerClock` replaces methods on *instances* (never on classes, never
in source) with timing wrappers.  Each wrapper records a call count, the
call's self time (its duration minus the time spent in wrapped calls it
made) and, for a few entry points, every call's duration.  Because the
wrappers nest, the self times of all wrapped functions plus the simulator
loop's own self time add up to the replay's wall time.

:func:`instrument` installs wrappers at every layer boundary of a built
system; :func:`layer_metrics` turns the clock plus the program's own
counters into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

from repro.serving.region import ServingRegion

_perf = time.perf_counter


class LayerClock:
    """Call counts, self times and per-call durations of wrapped methods."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = {}
        self.results: dict[str, dict[Any, int]] = {}
        #: Largest ``Simulator.pending_events`` seen at any arrival.
        self.pending_peak = 0
        # Time spent in wrapped callees of each active frame; the bottom
        # slot collects top-level calls and is never read.
        self._child_s: list[float] = [0.0]

    def wrap(self, obj: Any, attr: str, name: str, *,
             keep_durations: bool = False, count_results: bool = False,
             before: Optional[Callable[[], None]] = None) -> None:
        """Replace ``obj.attr`` with a timed wrapper booked under ``name``."""
        inner = getattr(obj, attr)
        stack = self._child_s
        calls, self_s = self.calls, self.self_s
        durations = (self.durations.setdefault(name, [])
                     if keep_durations else None)
        results = (self.results.setdefault(name, defaultdict(int))
                   if count_results else None)

        def timed(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before()
            stack.append(0.0)
            start = _perf()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                child = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - child
                calls[name] += 1
                if durations is not None:
                    durations.append(elapsed)
            if results is not None:
                results[result] += 1
            return result

        setattr(obj, attr, timed)


def systems_of(system: Any) -> list:
    """The ``MultiReplicaSystem`` shards behind a system or a region."""
    return system.systems if isinstance(system, ServingRegion) else [system]


def instrument(system: Any) -> LayerClock:
    """Install wrappers on every layer boundary of ``system``."""
    clock = LayerClock()
    sim = system.sim

    def sample_pending() -> None:
        clock.pending_peak = max(clock.pending_peak, sim.pending_events)

    clock.wrap(sim, "run", "sim.loop")
    if isinstance(system, ServingRegion):
        clock.wrap(system, "dispatch", "region.dispatch", before=sample_pending)
        clock.wrap(system, "_steal_into", "region.steal")
    for shard in systems_of(system):
        cluster = shard.cluster
        clock.wrap(cluster, "dispatch", "cluster.dispatch",
                   keep_durations=True,
                   before=None if isinstance(system, ServingRegion)
                   else sample_pending)
        clock.wrap(cluster, "_on_engine_finish", "cluster.release")
        clock.wrap(cluster, "_fair_step", "admission.drr")
        for replica in shard.replicas:
            engine = replica.engine
            clock.wrap(engine, "_end_iteration", "engine.iteration",
                       keep_durations=True)
            clock.wrap(engine, "_start_iteration", "engine.plan")
            clock.wrap(engine, "submit", "engine.submit")
            clock.wrap(engine, "admit", "engine.admit", count_results=True)
            clock.wrap(engine, "in_flight_token_load", "cluster.token_load")
            scheduler = replica.scheduler
            clock.wrap(scheduler, "select", "mlq.select")
            clock.wrap(scheduler, "enqueue", "mlq.enqueue")
            clock.wrap(scheduler, "queued_requests", "mlq.queued_requests")
            manager = replica.adapter_manager
            clock.wrap(manager, "make_room", "cache.make_room")
            clock.wrap(manager, "_eviction_order", "cache.evict_order")
            clock.wrap(manager, "acquire", "cache.acquire")
            clock.wrap(replica.link, "_complete", "pcie.complete")
            cost = replica.cost_model
            for method in ("iteration_time", "decode_step_time",
                           "prefill_time", "estimate_service_time"):
                clock.wrap(cost, method, "costmodel")
    return clock


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _quantile_us(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if values else 0.0


def layer_metrics(system: Any, clock: LayerClock,
                  replay_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced replay.

    Busy times are self times as a percentage of the replay's wall time
    (``*.pct``), so they add up to 100 across layers; counts come from the
    program's own counters or from the wrappers.  Layers that a workload
    does not exercise report zero.
    """
    calls, self_s = clock.calls, clock.self_s

    def share(name: str) -> float:
        return _pct(self_s.get(name, 0.0), replay_s)

    shards = systems_of(system)
    replicas = [replica for shard in shards for replica in shard.replicas]
    engines = [replica.engine for replica in replicas]
    iterations = sum(e.stats.iterations for e in engines)
    decode_tokens = sum(e.stats.decode_tokens for e in engines)
    admits = clock.results.get("engine.admit", {})
    attempts = sum(admits.values())
    admitted = sum(n for result, n in admits.items()
                   if result.value == "admitted")

    def rejected(reason: str) -> int:
        return sum(n for result, n in admits.items() if result.value == reason)

    cache = [replica.adapter_manager.stats for replica in replicas]
    hits = sum(s.hits for s in cache)
    lookups = hits + sum(s.misses + s.overlapped for s in cache)
    books = [book for shard in shards
             for book in shard.cluster.stats.tenants.values()]
    dispatches = calls.get("cluster.dispatch", 0)
    region_stats = system.stats if isinstance(system, ServingRegion) else None
    return {
        "sim.events": system.sim.processed_events,
        "sim.loop.pct": share("sim.loop"),
        "sim.pending_events_peak": clock.pending_peak,
        "cluster.dispatch.calls": dispatches,
        "cluster.dispatch.pct": share("cluster.dispatch"),
        "cluster.dispatch.p50_us": _quantile_us(
            clock.durations.get("cluster.dispatch", []), 50),
        "cluster.dispatch.p99_us": _quantile_us(
            clock.durations.get("cluster.dispatch", []), 99),
        "cluster.release.calls": calls.get("cluster.release", 0),
        "cluster.release.pct": share("cluster.release"),
        "cluster.queued": sum(s.cluster.stats.queued for s in shards),
        "cluster.token_load.calls": calls.get("cluster.token_load", 0),
        "cluster.token_load.pct": share("cluster.token_load"),
        "cluster.token_load.per_dispatch": (
            calls.get("cluster.token_load", 0) / dispatches
            if dispatches else 0.0),
        "engine.iterations": iterations,
        "engine.iteration.pct": share("engine.iteration"),
        "engine.iteration.p50_us": _quantile_us(
            clock.durations.get("engine.iteration", []), 50),
        "engine.iteration.p99_us": _quantile_us(
            clock.durations.get("engine.iteration", []), 99),
        "engine.plan.pct": share("engine.plan"),
        "engine.submit.calls": calls.get("engine.submit", 0),
        "engine.submit.pct": share("engine.submit"),
        "engine.batch.mean": decode_tokens / iterations if iterations else 0.0,
        "engine.admit.attempts": attempts,
        "engine.admit.pct": share("engine.admit"),
        "engine.admit.admitted_ratio": (
            admitted / attempts if attempts else 0.0),
        "engine.admit.rejected.batch_full": rejected("batch_full"),
        "engine.admit.rejected.no_memory": rejected("no_memory"),
        "engine.admit.rejected.no_adapter_room": rejected("no_adapter_room"),
        "engine.squashes": sum(e.stats.squashes for e in engines),
        "mlq.select.calls": calls.get("mlq.select", 0),
        "mlq.select.pct": share("mlq.select"),
        "mlq.enqueue.pct": share("mlq.enqueue"),
        "mlq.refreshes": sum(getattr(r.scheduler, "refresh_count", 0)
                             for r in replicas),
        "mlq.bypasses": sum(getattr(r.scheduler, "bypass_count", 0)
                            for r in replicas),
        "mlq.queued_requests.calls": calls.get("mlq.queued_requests", 0),
        "mlq.queued_requests.pct": share("mlq.queued_requests"),
        "cache.lookups": lookups,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.evictions": sum(s.evictions for s in cache),
        "cache.loaded_bytes": sum(s.loaded_bytes for s in cache),
        "cache.make_room.calls": calls.get("cache.make_room", 0),
        "cache.make_room.pct": share("cache.make_room"),
        "cache.evict_order.pct": share("cache.evict_order"),
        "cache.acquire.pct": share("cache.acquire"),
        "pcie.transfers": sum(r.link.total_transfers for r in replicas),
        "pcie.bytes": sum(r.link.total_bytes_moved for r in replicas),
        "pcie.complete.pct": share("pcie.complete"),
        "costmodel.calls": calls.get("costmodel", 0),
        "costmodel.pct": share("costmodel"),
        "region.dispatch.pct": share("region.dispatch"),
        "region.steal.pct": share("region.steal"),
        "region.spills": (region_stats.cross_shard_spills
                          if region_stats is not None else 0),
        "region.steals": region_stats.steals if region_stats is not None else 0,
        "admission.shed": sum(s.cluster.stats.shed for s in shards),
        "admission.throttled": sum(book.throttled for book in books),
        "admission.borrowed": sum(book.borrowed for book in books),
        "admission.drr.calls": calls.get("admission.drr", 0),
        "admission.drr.pct": share("admission.drr"),
    }
