"""Host-to-GPU transfer channel.

The link is modelled as a FIFO-serialized channel with a fixed effective
bandwidth plus a small per-transfer setup latency.  Serialization is the
behaviour that produces the paper's §3.2 contention effect: under load,
adapter transfers queue behind each other and adapter-load latency inflates
well beyond ``size / bandwidth``.

Calibration: Figure 2 shows a 256 MB rank-128 adapter loading in ~25 ms on an
unloaded system, i.e. ~10 GB/s effective host-to-device bandwidth (a PCIe
4.0 x16 link with realistic pinned-memory efficiency).  Figure 14 shows
S-LoRA critical-path loads of up to 30 ms, consistent with this plus queueing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.simulator import Simulator

GB = 1024 ** 3


@dataclass(frozen=True)
class PcieSpec:
    """Static link description.

    Attributes:
        bandwidth_bytes: Effective host-to-device bandwidth (bytes/s).
        setup_latency: Fixed per-transfer latency (driver + DMA setup).

    Transfers serialize in submission order: the DMA engine drains one
    copy at a time (see :class:`PcieLink`).
    """

    bandwidth_bytes: float = 10.0 * GB
    setup_latency: float = 0.2e-3


@dataclass(eq=False)  # identity semantics: cancel removes this transfer only
class Transfer:
    """One queued host-to-GPU copy."""

    nbytes: int
    submitted_at: float
    callback: Optional[Callable[["Transfer"], None]] = None
    tag: str = ""
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancelled: bool = False

    @property
    def queueing_delay(self) -> float:
        """Seconds the transfer waited behind other traffic."""
        if self.started_at is None:
            raise RuntimeError("transfer has not started")
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        """Total submit-to-finish latency."""
        if self.finished_at is None:
            raise RuntimeError("transfer has not finished")
        return self.finished_at - self.submitted_at


@dataclass
class LinkWindowStats:
    """Aggregated link telemetry over a time window (for Figure 4)."""

    start: float
    end: float
    bytes_moved: int = 0
    transfers: int = 0

    @property
    def bandwidth(self) -> float:
        span = self.end - self.start
        return self.bytes_moved / span if span > 0 else 0.0


class PcieLink:
    """FIFO-serialized host-to-GPU transfer channel with telemetry.

    Transfers are served one at a time in submission order; each takes
    ``setup_latency + nbytes / bandwidth`` seconds of link time.  Completion
    invokes the transfer's callback (the adapter manager's "load finished"
    hook).
    """

    def __init__(self, sim: Simulator, spec: PcieSpec = PcieSpec()) -> None:
        self.sim = sim
        self.spec = spec
        self._queue: deque[Transfer] = deque()
        self._active: Optional[Transfer] = None
        self.total_bytes_moved: int = 0
        self.total_transfers: int = 0
        self.busy_time: float = 0.0
        self._completed_log: list[Transfer] = []
        self.keep_log: bool = False

    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Transfers waiting (not counting the one in flight)."""
        return len(self._queue)

    @property
    def in_flight(self) -> Optional[Transfer]:
        return self._active

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of wall-clock time the link spent moving bytes."""
        span = elapsed if elapsed is not None else self.sim.now
        return self.busy_time / span if span > 0 else 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded service time of a transfer of ``nbytes``."""
        return self.spec.setup_latency + nbytes / self.spec.bandwidth_bytes

    # ------------------------------------------------------------------ #
    def submit(
        self,
        nbytes: int,
        callback: Optional[Callable[[Transfer], None]] = None,
        tag: str = "",
    ) -> Transfer:
        """Queue a host-to-GPU copy; ``callback(transfer)`` fires on completion."""
        if nbytes < 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        xfer = Transfer(nbytes=nbytes, submitted_at=self.sim.now, callback=callback, tag=tag)
        self._queue.append(xfer)
        self._pump()
        return xfer

    def submit_sharded(
        self,
        nbytes: int,
        shards: int,
        per_shard_overhead: float,
        callback: Optional[Callable[[Transfer], None]] = None,
        tag: str = "",
    ) -> Transfer:
        """Queue a tensor-parallel sharded copy.

        The adapter is partitioned across ``shards`` GPUs; the shards move
        serially over the shared host link and each pays an extra
        synchronization overhead (§3.2: "transferred separately to each GPU's
        memory, and synchronized").  Modelled as one logical transfer whose
        service time is ``shards * (setup + shard_bytes/bw + overhead)``.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        overhead_bytes = int(
            (per_shard_overhead + self.spec.setup_latency) * shards
            * self.spec.bandwidth_bytes
        )
        # Encode the sync overhead as equivalent bytes so the FIFO treats the
        # sharded load as one unit of link occupancy.
        return self.submit(nbytes + overhead_bytes, callback=callback, tag=tag)

    def cancel(self, xfer: Transfer) -> bool:
        """Cancel a queued transfer; returns False if already started."""
        if xfer.started_at is not None or xfer.cancelled:
            return False
        xfer.cancelled = True
        try:
            self._queue.remove(xfer)
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        if self._active is not None or not self._queue:
            return
        xfer = self._queue.popleft()
        xfer.started_at = self.sim.now
        self._active = xfer
        duration = self.transfer_time(xfer.nbytes)
        self.sim.schedule(duration, self._complete, xfer, duration)

    def _complete(self, xfer: Transfer, duration: float) -> None:
        xfer.finished_at = self.sim.now
        self._active = None
        self.total_bytes_moved += xfer.nbytes
        self.total_transfers += 1
        self.busy_time += duration
        if self.keep_log:
            self._completed_log.append(xfer)
        if xfer.callback is not None:
            xfer.callback(xfer)
        self._pump()

    # ------------------------------------------------------------------ #
    def window_stats(self, window: float, horizon: float) -> list[LinkWindowStats]:
        """Bin the completed-transfer log into fixed windows (Figure 4 telemetry)."""
        if not self.keep_log:
            raise RuntimeError("enable keep_log before the run to use window_stats")
        n_bins = max(1, int(horizon / window))
        bins = [LinkWindowStats(start=i * window, end=(i + 1) * window) for i in range(n_bins)]
        for xfer in self._completed_log:
            if xfer.finished_at is None:
                continue
            idx = min(int(xfer.finished_at / window), n_bins - 1)
            bins[idx].bytes_moved += xfer.nbytes
            bins[idx].transfers += 1
        return bins
