"""Tests for the adapter spec and host registry."""

import pytest

from repro.adapters.adapter import LoraAdapter
from repro.adapters.registry import DEFAULT_RANKS, AdapterRegistry
from repro.llm.model import LLAMA_7B, MB


def test_build_equal_adapters_per_rank():
    """§5.1: N_a adapters, equal count for each of the five ranks."""
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    for rank in DEFAULT_RANKS:
        assert len(registry.ids_by_rank(rank)) == 20


def test_build_sizes_follow_model_geometry():
    registry = AdapterRegistry.build(LLAMA_7B, 5)
    for adapter in registry:
        assert adapter.size_bytes == LLAMA_7B.adapter_bytes(adapter.rank)
    assert registry.get(2).rank == 32
    assert registry.get(2).size_bytes == 64 * MB


def test_ranks_property_sorted_distinct():
    registry = AdapterRegistry.build(LLAMA_7B, 10)
    assert registry.ranks == [8, 16, 32, 64, 128]


def test_max_size_and_rank():
    """The largest adapter is one of the top rank."""
    registry = AdapterRegistry.build(LLAMA_7B, 10)
    assert registry.ranks[-1] == 128
    assert registry.max_size_bytes == LLAMA_7B.adapter_bytes(128)


def test_get_unknown_id_raises():
    registry = AdapterRegistry.build(LLAMA_7B, 5)
    with pytest.raises(KeyError):
        registry.get(5)
    with pytest.raises(KeyError):
        registry.get(-1)


def test_len_and_iter():
    registry = AdapterRegistry.build(LLAMA_7B, 7)
    assert len(registry) == 7
    assert [a.adapter_id for a in registry] == list(range(7))


def test_custom_rank_set():
    registry = AdapterRegistry.build(LLAMA_7B, 6, ranks=(4, 8))
    assert registry.ranks == [4, 8]
    assert len(registry.ids_by_rank(4)) == 3


def test_build_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        AdapterRegistry.build(LLAMA_7B, 0)


def test_registry_requires_dense_ids():
    adapters = [LoraAdapter(adapter_id=1, rank=8, size_bytes=100)]
    with pytest.raises(ValueError):
        AdapterRegistry(adapters)


def test_registry_rejects_empty():
    with pytest.raises(ValueError):
        AdapterRegistry([])


def test_adapter_validation():
    with pytest.raises(ValueError):
        LoraAdapter(adapter_id=0, rank=0, size_bytes=100)
    with pytest.raises(ValueError):
        LoraAdapter(adapter_id=0, rank=8, size_bytes=0)
