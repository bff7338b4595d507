"""The Chameleon Adapter Cache and its manager (§4.2).

The cache is *transparent* (requests never wait on it, they only benefit),
*adaptive* (it lives in whatever GPU memory is idle and is shrunk on demand
by ``make_room`` when serving state needs bytes — dynamic cache sizing), and
*interference-free* (it never takes memory from the KV cache; eviction always
precedes any reservation that would not fit).

Differences from the S-LoRA baseline manager are exactly the paper's:
idle adapters are retained instead of discarded, eviction follows the
pluggable cost-aware policy, and an optional histogram-driven prefetcher
(§4.2.3) warms adapters for *predicted* future requests.
"""

from __future__ import annotations

from typing import Optional

from repro.adapters.registry import AdapterRegistry
from repro.core.eviction import ChameleonScorePolicy, EvictionPolicy
from repro.hardware.gpu import GpuDevice
from repro.hardware.pcie import PcieLink
from repro.predictor.load_forecast import HistogramLoadPredictor
from repro.serving.adapter_manager import (
    AdapterEntry,
    AdapterManagerBase,
    AdapterState,
)
from repro.sim.simulator import Simulator
from repro.workload.request import Request


class ChameleonCacheManager(AdapterManagerBase):
    """Adapter manager with the Chameleon cache semantics."""

    def __init__(
        self,
        sim: Simulator,
        gpu: GpuDevice,
        link: PcieLink,
        registry: AdapterRegistry,
        policy: Optional[EvictionPolicy] = None,
        prefetcher: Optional["CachePrefetcher"] = None,
    ) -> None:
        super().__init__(sim, gpu, link, registry)
        self.policy = policy if policy is not None else ChameleonScorePolicy()
        self.prefetcher = prefetcher
        if prefetcher is not None:
            prefetcher.attach(self)

    # -- base-class hooks ------------------------------------------------ #
    def _handle_idle(self, entry: AdapterEntry) -> None:
        """Keep idle adapters: reclassify their bytes as cache (§4.2.1)."""
        self.gpu.move("adapter", "adapter_cache", entry.size_bytes)

    def _eviction_order(self, candidates, now: float):
        return self.policy.order(list(candidates), now)

    def _on_evicted(self, entry: AdapterEntry) -> None:
        self.policy.on_evict(entry)

    # -- metadata hooks -------------------------------------------------- #
    def on_request_arrival(self, request: Request) -> None:
        """Record usage metadata and prefetch a missing adapter for the
        queue (as the base manager does), then refresh the policy's score
        — only a policy that overrides ``on_access`` keeps one (GDSF) —
        and feed the prefetcher's histogram."""
        aid = request.adapter_id
        if aid is None:
            return
        entry = self.entries[aid]
        now = self.sim.now
        entry.record_use(now)
        if entry.state is AdapterState.MISSING:
            self.prefetch(aid)
        policy = self.policy
        if type(policy).on_access is not EvictionPolicy.on_access:
            policy.on_access(entry, now)
        if self.prefetcher is not None:
            self.prefetcher.record_use(aid, now)


class CachePrefetcher:
    """Histogram-driven predictive prefetching (§4.2.3, Figure 18).

    Every ``interval`` simulated seconds, ask the load predictor which
    adapters are likely to be used within ``horizon`` and warm the most
    likely ones into free GPU memory (never evicting for a prediction —
    predictions are hints, resident state is ground truth).
    """

    def __init__(
        self,
        sim: Simulator,
        predictor: Optional[HistogramLoadPredictor] = None,
        interval: float = 2.0,
        horizon: float = 10.0,
        max_prefetch_per_round: int = 4,
        min_probability: float = 0.3,
    ) -> None:
        self.sim = sim
        self.predictor = predictor if predictor is not None else HistogramLoadPredictor()
        self.interval = interval
        self.horizon = horizon
        self.max_prefetch_per_round = max_prefetch_per_round
        self.min_probability = min_probability
        self._manager: Optional[ChameleonCacheManager] = None
        self.prefetches_issued = 0
        self._armed = False
        self._last_use_time = float("-inf")

    def attach(self, manager: ChameleonCacheManager) -> None:
        self._manager = manager

    def record_use(self, adapter_id: int, now: float) -> None:
        self.predictor.record_use(adapter_id, now)
        self._last_use_time = now
        self._arm()

    def _arm(self) -> None:
        """Schedule the next tick; the timer disarms itself when traffic
        stops so an idle prefetcher never keeps the simulation alive."""
        if not self._armed and self._manager is not None:
            self._armed = True
            self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self._armed = False
        manager = self._manager
        if manager is None:
            return
        now = self.sim.now
        already = {
            aid for aid, entry in manager.entries.items()
            if entry.state is not AdapterState.MISSING
        }
        candidates = self.predictor.rank_candidates(
            now, self.horizon, exclude=already, min_probability=self.min_probability
        )
        issued = 0
        for adapter_id, _probability in candidates:
            if issued >= self.max_prefetch_per_round:
                break
            if manager.prefetch(adapter_id):
                issued += 1
                self.prefetches_issued += 1
        # Keep ticking only while traffic is flowing.
        if now - self._last_use_time <= 2 * self.interval:
            self._arm()
