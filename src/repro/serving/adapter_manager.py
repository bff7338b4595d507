"""Adapter residency management.

The base class owns everything both systems share: residency states, pinning
via reference counters, transfer orchestration over the PCIe link, usage
metadata (recency / decayed frequency), queue-aware retention, and hit/miss
telemetry.  The two concrete managers differ only in what happens when an
adapter goes idle and in the eviction order:

* :class:`SloraAdapterManager` — the baseline (§2, Figure 1): adapters are
  fetched on demand (with asynchronous prefetch for queued requests) and
  **discarded** as soon as no running or queued request needs them.
* :class:`repro.core.cache.ChameleonCacheManager` — keeps idle adapters in a
  dynamically-sized cache carved out of idle GPU memory, with a cost-aware
  eviction policy (§4.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.adapters.registry import AdapterRegistry
from repro.hardware.cluster import TensorParallelGroup
from repro.hardware.gpu import GpuDevice
from repro.hardware.pcie import PcieLink, Transfer
from repro.sim.simulator import Simulator
from repro.workload.request import Request

#: Half-life of the decayed usage-frequency counter, seconds.
FREQUENCY_HALF_LIFE = 120.0


class AdapterState(enum.Enum):
    MISSING = "missing"
    LOADING = "loading"
    RESIDENT = "resident"


@dataclass
class AdapterEntry:
    """Runtime state + §4.2 metadata for one adapter on one device.

    The metadata fields mirror the paper's cache-entry list: adapter id,
    rank, last-used timestamp, usage frequency, and reference counter.
    """

    adapter_id: int
    rank: int
    size_bytes: int
    state: AdapterState = AdapterState.MISSING
    refcount: int = 0
    last_used: float = float("-inf")
    frequency: float = 0.0
    _freq_updated: float = 0.0
    transfer: Optional[Transfer] = None
    gdsf_h: float = 0.0   # greedy-dual score, maintained by the GDSF policy

    def record_use(self, now: float) -> None:
        """Bump recency and the exponentially-decayed frequency counter."""
        self.frequency = self.decayed_frequency(now) + 1.0
        self._freq_updated = now
        self.last_used = now

    def decayed_frequency(self, now: float) -> float:
        dt = max(0.0, now - self._freq_updated)
        return self.frequency * math.pow(0.5, dt / FREQUENCY_HALF_LIFE)


@dataclass
class AdapterManagerStats:
    """Telemetry for Figure 14 and the §5.2.5 hit-rate claim."""

    hits: int = 0                 # resident at admission
    overlapped: int = 0           # in flight at admission (prefetch overlap)
    misses: int = 0               # load started at admission
    evictions: int = 0
    evicted_bytes: int = 0
    loads: int = 0
    loaded_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.overlapped + self.misses
        return self.hits / total if total else float("nan")


class AdapterManagerBase:
    """Shared residency/transfer machinery; see module docstring."""

    def __init__(
        self,
        sim: Simulator,
        gpu: GpuDevice,
        link: PcieLink,
        registry: AdapterRegistry,
    ) -> None:
        self.sim = sim
        self.gpu = gpu
        self.link = link
        self.registry = registry
        self.entries: dict[int, AdapterEntry] = {
            a.adapter_id: AdapterEntry(a.adapter_id, a.rank, a.size_bytes)
            for a in registry
        }
        self.stats = AdapterManagerStats()
        #: Ids of the resident adapters with refcount 0 (the eviction
        #: candidates), kept up to date wherever a state or refcount
        #: changes, so reclaiming memory never scans every entry.
        self._idle: set[int] = set()
        self._queued_needed: set[int] = set()
        self._ready_callbacks: list[Callable[[int], None]] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entry(self, adapter_id: int) -> AdapterEntry:
        return self.entries[adapter_id]

    def is_resident(self, adapter_id: int) -> bool:
        return self.entries[adapter_id].state is AdapterState.RESIDENT

    def is_loading(self, adapter_id: int) -> bool:
        return self.entries[adapter_id].state is AdapterState.LOADING

    def refcount(self, adapter_id: int) -> int:
        return self.entries[adapter_id].refcount

    def on_ready(self, callback: Callable[[int], None]) -> None:
        """Register an engine hook fired when an adapter load completes."""
        self._ready_callbacks.append(callback)

    def set_queued_needed(self, adapter_ids: set[int]) -> None:
        """Scheduler tells us which adapters queued requests will need (§4.2.2).

        The set is kept as given, not copied: the caller builds a fresh one
        every scheduling round and must not mutate it afterwards.
        """
        self._queued_needed = adapter_ids

    # ------------------------------------------------------------------ #
    # Request lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_request_arrival(self, request: Request) -> None:
        """Record usage metadata and prefetch for the queue."""
        aid = request.adapter_id
        if aid is None:
            return
        entry = self.entries[aid]
        entry.record_use(self.sim.now)
        self.prefetch(aid)

    def prefetch(self, adapter_id: int) -> bool:
        """Start loading an adapter into *free* memory (never evicts).

        Returns True if the adapter is resident, already in flight, or a load
        was started.
        """
        entry = self.entries[adapter_id]
        if entry.state is not AdapterState.MISSING:
            return True
        if not self.gpu.can_fit(entry.size_bytes):
            return False
        self._start_load(entry)
        return True

    def acquire(self, adapter_id: int) -> AdapterState:
        """Pin an adapter for an admitted request; load it if missing.

        The caller must have ensured room for the adapter (``make_room``)
        before calling.  Returns the adapter's state after the call —
        ``RESIDENT`` (a cache hit) or ``LOADING``.
        """
        entry = self.entries[adapter_id]
        entry.record_use(self.sim.now)
        if entry.state is AdapterState.RESIDENT:
            self.stats.hits += 1
            if entry.refcount == 0:
                # Idle cached copy becomes in-use: accounting moves only.
                self.gpu.move("adapter_cache", "adapter", entry.size_bytes)
                self._idle.discard(adapter_id)
            entry.refcount += 1
            return AdapterState.RESIDENT
        if entry.state is AdapterState.LOADING:
            self.stats.overlapped += 1
            entry.refcount += 1
            return AdapterState.LOADING
        self.stats.misses += 1
        self._start_load(entry)
        entry.refcount += 1
        return AdapterState.LOADING

    def release(self, adapter_id: int) -> None:
        """Unpin an adapter when its request finishes (or is squashed)."""
        entry = self.entries[adapter_id]
        if entry.refcount <= 0:
            raise RuntimeError(f"release of unpinned adapter {adapter_id}")
        entry.refcount -= 1
        if entry.refcount == 0 and entry.state is AdapterState.RESIDENT:
            self._handle_idle(entry)
            if entry.state is AdapterState.RESIDENT:  # kept, now idle
                self._idle.add(adapter_id)

    # ------------------------------------------------------------------ #
    # Memory reclamation
    # ------------------------------------------------------------------ #
    def make_room(
        self,
        needed_bytes: int,
        exclude: Optional[set] = None,
    ) -> bool:
        """Evict idle adapters until ``needed_bytes`` fit in free memory.

        Eviction eligibility follows §4.2.2: only refcount-zero adapters;
        adapters needed by queued requests are evicted only after every
        other idle adapter.  Adapters in ``exclude`` (e.g. the one the
        request being admitted uses) are never touched.  Returns True if
        enough bytes are now free.
        """
        if self.gpu.free_bytes >= needed_bytes:
            return True
        now = self.sim.now
        exclude = exclude or set()
        tiers: list[list[AdapterEntry]] = [[], []]
        # Ascending ids: the order the policies' sorts break ties in.
        for aid in sorted(self._idle):
            if aid in exclude:
                continue
            entry = self.entries[aid]
            tiers[0 if aid not in self._queued_needed else 1].append(entry)
        for tier in tiers:
            for entry in self._eviction_order(tier, now):
                if self.gpu.free_bytes >= needed_bytes:
                    return True
                self._evict(entry)
        return self.gpu.free_bytes >= needed_bytes

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _start_load(self, entry: AdapterEntry) -> None:
        """Reserve bytes and put the transfer on the link."""
        self.gpu.reserve("adapter", entry.size_bytes)
        entry.state = AdapterState.LOADING
        self.stats.loads += 1
        self.stats.loaded_bytes += entry.size_bytes

        def _done(xfer: Transfer, entry: AdapterEntry = entry) -> None:
            self._on_load_complete(entry)

        if isinstance(self.gpu, TensorParallelGroup):
            entry.transfer = self.gpu.submit_adapter_load(
                self.link, entry.size_bytes, callback=_done, tag=f"adapter-{entry.adapter_id}"
            )
        else:
            entry.transfer = self.link.submit(
                entry.size_bytes, callback=_done, tag=f"adapter-{entry.adapter_id}"
            )

    def _on_load_complete(self, entry: AdapterEntry) -> None:
        entry.state = AdapterState.RESIDENT
        entry.transfer = None
        if entry.refcount == 0:
            self._handle_idle(entry)
            if entry.state is AdapterState.RESIDENT:  # kept, now idle
                self._idle.add(entry.adapter_id)
        for callback in self._ready_callbacks:
            callback(entry.adapter_id)

    def _evict(self, entry: AdapterEntry) -> None:
        if entry.refcount != 0 or entry.state is not AdapterState.RESIDENT:
            raise RuntimeError(f"cannot evict pinned/non-resident adapter {entry.adapter_id}")
        self.gpu.release("adapter_cache", entry.size_bytes)
        entry.state = AdapterState.MISSING
        self._idle.discard(entry.adapter_id)
        self.stats.evictions += 1
        self.stats.evicted_bytes += entry.size_bytes
        self._on_evicted(entry)

    # -- subclass hooks -------------------------------------------------- #
    def _handle_idle(self, entry: AdapterEntry) -> None:
        """Called when a resident adapter's refcount drops to zero."""
        raise NotImplementedError

    def _eviction_order(self, candidates: list[AdapterEntry], now: float) -> list[AdapterEntry]:
        """Order eviction candidates, first-to-evict first."""
        raise NotImplementedError

    def _on_evicted(self, entry: AdapterEntry) -> None:
        """Policy hook after an eviction (e.g. GDSF aging)."""


class SloraAdapterManager(AdapterManagerBase):
    """The S-LoRA baseline: fetch on demand, prefetch for the queue, no cache.

    An adapter whose last user finishes is discarded immediately *unless* a
    queued request needs it (the prefetch-retention the baseline performs);
    retained-idle adapters are evicted in LRU order under memory pressure.
    """

    def _handle_idle(self, entry: AdapterEntry) -> None:
        if entry.adapter_id in self._queued_needed:
            self.gpu.move("adapter", "adapter_cache", entry.size_bytes)
            return
        self.gpu.release("adapter", entry.size_bytes)
        entry.state = AdapterState.MISSING

    def _eviction_order(self, candidates: list[AdapterEntry], now: float) -> list[AdapterEntry]:
        return sorted(candidates, key=lambda e: e.last_used)
