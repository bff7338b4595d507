"""Sub-linear dispatch indices for the data-parallel cluster.

Every load-following dispatch policy used to answer "which replica next?"
by scanning the whole fleet per arrival — O(n) probes that dominate the
hot path once fleets reach the 100s–1000s of replicas a serving *region*
needs.  The structures here answer the same queries in O(log n) against
the cluster's incremental load counters:

* :class:`MinLoadHeap` — a lazy min-heap of ``(load, index)`` entries for
  JSQ-style argmin queries.  Entries are never updated in place: every
  load change pushes a fresh entry, and stale entries (whose stored load
  no longer matches the live counter, or whose replica left the dispatch
  set) are discarded at ``peek`` time.  The ``(load, index)`` tuple order
  reproduces exactly the ``min()``-over-ascending-candidates tie-break of
  the linear scan: smallest load first, lowest replica index on ties.

* :class:`SelectableBitset` — a Fenwick-indexed 0/1 array over replica
  slots supporting O(log n) *k-th set bit* selection.  Power-of-two-
  choices sampling draws positions into the list of unsaturated eligible
  replicas; selecting the k-th set bit maps a position to a replica index
  without materializing that list, consuming the dispatch RNG identically
  to the scan it replaces.

The cluster owns all index maintenance (what to push, when to rebuild);
these classes are deliberately dumb containers so the bit-for-bit
equivalence argument lives in one place (``hardware/cluster.py``).
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

    def peek_unsaturated(self, loads: Sequence, eligible: Sequence,
                         counts: Sequence, caps: Sequence) -> Optional[int]:
        """Like :meth:`peek`, but skip replicas whose request count is at
        their batch cap.  A *valid* entry for a saturated replica is
        discarded rather than kept, so the owner must push a fresh entry
        when the replica regains headroom (a finish need not change its
        load)."""
        heap = self._heap
        while heap:
            load, index = heap[0]
            if eligible[index] and loads[index] == load:
                if counts[index] < caps[index]:
                    return index
            heappop(heap)
        return None


class SelectableBitset:
    """Fenwick-indexed 0/1 array with O(log n) k-th set bit selection.

    Built in O(n) from an initial bit sequence; :meth:`set` flips one bit
    in O(log n); :meth:`kth` returns the index of the k-th set bit
    (0-based, ascending index order) in O(log n).
    """

    __slots__ = ("_n", "_bits", "_tree", "_count", "_log")

    def __init__(self, bits: Iterable) -> None:
        self._bits = [1 if b else 0 for b in bits]
        n = len(self._bits)
        self._n = n
        tree = [0] * (n + 1)
        for i, bit in enumerate(self._bits):
            if bit:
                tree[i + 1] += 1
        for i in range(1, n + 1):  # sibling pass turns counts into a Fenwick tree
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._tree = tree
        self._count = sum(self._bits)
        self._log = n.bit_length()

    def __len__(self) -> int:
        return self._count

    def get(self, index: int) -> bool:
        return bool(self._bits[index])

    def set(self, index: int, value) -> None:
        bit = 1 if value else 0
        delta = bit - self._bits[index]
        if not delta:
            return
        self._bits[index] = bit
        self._count += delta
        tree, n = self._tree, self._n
        i = index + 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    def kth(self, k: int) -> int:
        """Index of the k-th set bit (0-based), ascending."""
        if not 0 <= k < self._count:
            raise IndexError(f"k={k} out of range (count={self._count})")
        tree, n = self._tree, self._n
        pos = 0
        remaining = k + 1
        step = 1 << self._log
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] < remaining:
                pos = nxt
                remaining -= tree[nxt]
            step >>= 1
        return pos  # pos = count of slots before the answer = its 0-based index
