"""Host-side registry of all adapters an LLM instance can serve.

The paper's default pool (§5.1): ``N_a`` adapters over five ranks
{8, 16, 32, 64, 128}, an equal number of adapters per rank, requests
assigned a rank uniformly and an adapter within the rank by a power law.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.adapters.adapter import LoraAdapter
from repro.llm.model import ModelSpec

#: The five ranks of the paper's evaluation.
DEFAULT_RANKS: tuple[int, ...] = (8, 16, 32, 64, 128)


class AdapterRegistry:
    """All adapters known to the system, stored in host memory.

    Adapters are identified by dense integer ids ``0..n-1``.  The registry is
    read-only after construction; GPU residency is tracked by the adapter
    managers, not here.
    """

    def __init__(self, adapters: Sequence[LoraAdapter]) -> None:
        if not adapters:
            raise ValueError("registry needs at least one adapter")
        self._adapters = list(adapters)
        ids = [a.adapter_id for a in self._adapters]
        if ids != list(range(len(ids))):
            raise ValueError("adapter ids must be dense 0..n-1 in order")

    @classmethod
    def build(
        cls,
        model: ModelSpec,
        n_adapters: int,
        ranks: Iterable[int] = DEFAULT_RANKS,
    ) -> "AdapterRegistry":
        """Build the paper's pool: ranks round-robined over ``n_adapters`` ids.

        With ``n_adapters`` divisible by the number of ranks this yields an
        equal number of adapters per rank, matching §5.1.
        """
        ranks = tuple(ranks)
        if n_adapters <= 0:
            raise ValueError(f"n_adapters must be positive, got {n_adapters}")
        adapters = [
            LoraAdapter(
                adapter_id=i,
                rank=ranks[i % len(ranks)],
                size_bytes=model.adapter_bytes(ranks[i % len(ranks)]),
            )
            for i in range(n_adapters)
        ]
        return cls(adapters)

    def __len__(self) -> int:
        return len(self._adapters)

    def __iter__(self):
        return iter(self._adapters)

    def get(self, adapter_id: int) -> LoraAdapter:
        if not 0 <= adapter_id < len(self._adapters):
            raise KeyError(f"unknown adapter id {adapter_id}")
        return self._adapters[adapter_id]

    def ids_by_rank(self, rank: int) -> list[int]:
        """All adapter ids of a given rank (used by popularity sampling)."""
        return [a.adapter_id for a in self._adapters if a.rank == rank]

    @property
    def ranks(self) -> list[int]:
        """Sorted distinct ranks present in the pool."""
        return sorted({a.rank for a in self._adapters})

    @property
    def max_size_bytes(self) -> int:
        return max(a.size_bytes for a in self._adapters)
