"""Byte-accurate GPU memory accountant.

The device tracks memory in named categories (``weights``, ``activations``,
``kv``, ``adapter``, ``adapter_cache``) so the Chameleon cache can grow into
whatever is idle and shrink the instant serving state needs the bytes back —
the Figure 6 behaviour.  A small telemetry hook records a time series of
per-category usage for the memory-timeline experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

MB = 1024 * 1024
GB = 1024 * MB

#: Canonical memory categories, in the order they are reported.
MEMORY_CATEGORIES = ("weights", "activations", "kv", "adapter", "adapter_cache")


class MemoryExhausted(RuntimeError):
    """Raised when a reservation exceeds the remaining device memory."""


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU.

    Attributes:
        name: Marketing name.
        memory_bytes: HBM capacity.
        peak_tflops: Peak fp16 dense throughput in TFLOP/s.
        mem_bandwidth_bytes: HBM bandwidth in bytes/s.
    """

    name: str
    memory_bytes: int
    peak_tflops: float
    mem_bandwidth_bytes: float


A40_48GB = GpuSpec("a40-48gb", 48 * GB, 149.7, 696 * GB)
A100_80GB = GpuSpec("a100-80gb", 80 * GB, 312.0, 2039 * GB)
# The paper's §5.5 A100 configured down to 48/24 GB (compute unchanged).
A100_48GB = GpuSpec("a100-48gb", 48 * GB, 312.0, 2039 * GB)
A100_24GB = GpuSpec("a100-24gb", 24 * GB, 312.0, 2039 * GB)

GPU_ZOO: dict[str, GpuSpec] = {
    g.name: g for g in (A40_48GB, A100_80GB, A100_48GB, A100_24GB)
}


@dataclass
class MemorySample:
    """One telemetry sample of per-category memory usage."""

    time: float
    usage: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.usage.values())


class GpuDevice:
    """Memory accountant for one GPU (or one aggregated TP group).

    All reservations are explicit; the device never implicitly evicts
    anything — reclaiming cache space is the Cache Manager's job, which is
    exactly the division of labour §4.2 describes.
    """

    def __init__(self, spec: GpuSpec, memory_bytes: Optional[int] = None) -> None:
        self.spec = spec
        self.capacity = int(memory_bytes if memory_bytes is not None else spec.memory_bytes)
        self._used: dict[str, int] = {c: 0 for c in MEMORY_CATEGORIES}
        self._used_total: int = 0  # running sum of _used (hot-path probe)
        self.samples: list[MemorySample] = []
        self._telemetry_interval: Optional[float] = None
        self._last_sample_time: float = float("-inf")

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        return self._used_total

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used_total

    def used(self, category: str) -> int:
        return self._used.get(category, 0)

    def reserve(self, category: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``category``; raises if it does not fit."""
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes ({nbytes})")
        if nbytes > self.free_bytes:
            raise MemoryExhausted(
                f"reserve {nbytes / MB:.1f} MB of '{category}' exceeds free "
                f"{self.free_bytes / MB:.1f} MB on {self.spec.name}"
            )
        self._used.setdefault(category, 0)
        self._used[category] += nbytes
        self._used_total += nbytes

    def release(self, category: str, nbytes: int) -> None:
        """Return ``nbytes`` previously reserved under ``category``."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes ({nbytes})")
        held = self._used.get(category, 0)
        if nbytes > held:
            raise ValueError(
                f"release {nbytes} from '{category}' exceeds held {held}"
            )
        self._used[category] = held - nbytes
        self._used_total -= nbytes

    def move(self, src: str, dst: str, nbytes: int) -> None:
        """Reclassify bytes between categories without changing the total.

        Used when an idle cached adapter is re-acquired by a request
        (``adapter_cache`` -> ``adapter``) and vice versa; the weights do not
        move in memory, only their accounting state changes.
        """
        self.release(src, nbytes)
        # A move can never fail: the bytes were already resident.
        self._used.setdefault(dst, 0)
        self._used[dst] += nbytes
        self._used_total += nbytes

    def can_fit(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def enable_telemetry(self, interval: float) -> None:
        """Record at most one memory sample per ``interval`` simulated seconds."""
        self._telemetry_interval = float(interval)

    def maybe_sample(self, now: float) -> None:
        """Record a sample if telemetry is enabled and the interval elapsed."""
        if self._telemetry_interval is None:
            return
        if now - self._last_sample_time < self._telemetry_interval:
            return
        self._last_sample_time = now
        self.samples.append(MemorySample(time=now, usage=dict(self._used)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cats = ", ".join(f"{k}={v / MB:.0f}MB" for k, v in self._used.items() if v)
        return f"GpuDevice({self.spec.name}, free={self.free_bytes / MB:.0f}MB, {cats})"
