"""Adapter-cache eviction policies (§4.2.2 and the §5.3.3 comparison).

All policies produce an eviction *order* over the refcount-zero candidates;
the cache manager evicts from the front until enough bytes are free.

* **Chameleon** — compound score ``F*Frequency + R*Recency + S*Size`` with the
  paper's profiled weights F=0.45, R=0.10, S=0.45; the lowest score is evicted
  first.  Size enters positively: large adapters are costlier to reload, so
  they score higher and smaller adapters are evicted first (cost-awareness).
* **FairShare** — the same compound score with equal weights (§5.3.3).
* **LRU** — least-recently-used first.
* **GDSF** — Greedy-Dual-Size-Frequency [5]: ``H = L + Frequency * Cost/Size``
  with the global inflation value L updated to each evicted H.  With adapter
  load cost roughly proportional to size, H degenerates toward pure
  (aged) frequency — the behaviour the paper criticizes in §5.3.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Paper §4.2.2: profiled weighting coefficients.
CHAMELEON_WEIGHTS = (0.45, 0.10, 0.45)

#: Time constant of the recency feature (seconds): an adapter untouched for
#: one constant decays to 1/e recency.
RECENCY_TAU = 60.0


class EvictionPolicy:
    """Interface: order candidates, first-to-evict first."""

    name = "base"

    def order(self, candidates: list, now: float) -> list:
        raise NotImplementedError

    def on_evict(self, entry) -> None:
        """Hook fired after an entry is evicted (GDSF aging)."""

    def on_access(self, entry, now: float) -> None:
        """Hook fired when an adapter is used (GDSF score refresh)."""


@dataclass
class ChameleonScorePolicy(EvictionPolicy):
    """The paper's compound score; see module docstring.

    Features are normalized per eviction round: frequency by the max decayed
    frequency among candidates, recency as
    ``exp(-(now - last_used) / RECENCY_TAU)``, size by the largest candidate
    size.
    """

    f_weight: float = CHAMELEON_WEIGHTS[0]
    r_weight: float = CHAMELEON_WEIGHTS[1]
    s_weight: float = CHAMELEON_WEIGHTS[2]
    name: str = "chameleon"

    def score(self, entry, now: float, max_freq: float, max_size: float) -> float:
        freq = entry.decayed_frequency(now) / max_freq if max_freq > 0 else 0.0
        age = max(0.0, now - entry.last_used)
        recency = math.exp(-age / RECENCY_TAU)
        size = entry.size_bytes / max_size if max_size > 0 else 0.0
        return self.f_weight * freq + self.r_weight * recency + self.s_weight * size

    def order(self, candidates: list, now: float) -> list:
        if not candidates:
            return []
        max_freq = max(e.decayed_frequency(now) for e in candidates)
        max_size = max(e.size_bytes for e in candidates)
        return sorted(
            candidates,
            key=lambda e: (self.score(e, now, max_freq, max_size), e.adapter_id),
        )


class FairSharePolicy(ChameleonScorePolicy):
    """Equal-weight variant of the compound score (§5.3.3's Ch-FairShare)."""

    def __init__(self) -> None:
        third = 1.0 / 3.0
        super().__init__(f_weight=third, r_weight=third, s_weight=third, name="fairshare")


class LruPolicy(EvictionPolicy):
    """Evict the least-recently-used adapter first."""

    name = "lru"

    def order(self, candidates: list, now: float) -> list:
        return sorted(candidates, key=lambda e: (e.last_used, e.adapter_id))


class GdsfPolicy(EvictionPolicy):
    """Greedy-Dual-Size-Frequency with load-time cost.

    ``H(entry) = L + frequency * cost / size`` where cost is the adapter's
    (unloaded) link transfer time.  L inflates to the evicted entry's H, so
    long-idle entries age out.
    """

    name = "gdsf"

    def __init__(self, link_bandwidth: float, setup_latency: float = 0.2e-3) -> None:
        if link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        self.link_bandwidth = link_bandwidth
        self.setup_latency = setup_latency
        self.inflation = 0.0

    def _cost(self, entry) -> float:
        return self.setup_latency + entry.size_bytes / self.link_bandwidth

    def on_access(self, entry, now: float) -> None:
        entry.gdsf_h = self.inflation + entry.decayed_frequency(now) * (
            self._cost(entry) / entry.size_bytes
        )

    def on_evict(self, entry) -> None:
        self.inflation = max(self.inflation, entry.gdsf_h)

    def order(self, candidates: list, now: float) -> list:
        for entry in candidates:
            if entry.gdsf_h == 0.0:
                self.on_access(entry, now)
        return sorted(candidates, key=lambda e: (e.gdsf_h, e.adapter_id))


def make_policy(name: str, link_bandwidth: Optional[float] = None) -> EvictionPolicy:
    """Factory by policy name: chameleon | fairshare | lru | gdsf."""
    if name == "chameleon":
        return ChameleonScorePolicy()
    if name == "fairshare":
        return FairSharePolicy()
    if name == "lru":
        return LruPolicy()
    if name == "gdsf":
        if link_bandwidth is None:
            raise ValueError("gdsf needs the link bandwidth for its cost term")
        return GdsfPolicy(link_bandwidth)
    raise ValueError(f"unknown eviction policy {name!r}")
