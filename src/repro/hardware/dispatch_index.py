"""The count heap behind ``least_loaded`` dispatch.

``least_loaded`` is the one policy whose callers run wide fleets (the
1M-request hot path at 64 replicas, the region sweep at 64-1,024), so it
alone answers "which replica next?" from an index instead of scanning the
candidates.  Every other policy runs on at most a few replicas per
dispatcher and picks through the cluster's live scan (``_pick``).

:class:`MinLoadHeap` is a lazy min-heap of ``(load, index)`` entries.
Entries are never updated in place: every load change pushes a fresh entry,
and stale entries (whose stored load no longer matches the live counter, or
whose replica left the dispatch set) are discarded at ``peek`` time.  The
``(load, index)`` tuple order reproduces exactly the
``min()``-over-ascending-candidates tie-break of the scan: smallest load
first, lowest replica index on ties.

The cluster owns all heap maintenance (what to push, when to rebuild); the
heap is a deliberately dumb container, so the bit-for-bit equivalence
argument lives in one place (``hardware/cluster.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence


class MinLoadHeap:
    """Lazy min-heap of ``(load, replica index)`` entries.

    The owner pushes a fresh entry on every load change and supplies the
    live ``loads`` / ``eligible`` arrays at query time; ``peek`` discards
    entries that no longer reflect them.  An entry that *matches* the live
    load is current by construction — if two pushes stored the same value,
    discarding either is harmless because an equal entry remains.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, load, index: int) -> None:
        heappush(self._heap, (load, index))

    def rebuild(self, entries: Iterable) -> None:
        """Replace the heap contents with ``(load, index)`` pairs (compaction
        after lazy deletions, or a fleet-membership change)."""
        self._heap = list(entries)
        heapify(self._heap)

    def peek(self, loads: Sequence, eligible: Sequence) -> Optional[int]:
        """Index with the smallest current load among eligible replicas
        (ties: lowest index), or ``None`` if no entry survives."""
        heap = self._heap
        while heap:
            load, index = heap[0]
            if eligible[index] and loads[index] == load:
                return index
            heappop(heap)
        return None
