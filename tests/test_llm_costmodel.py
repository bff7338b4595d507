"""Tests for the latency cost model, including the Figure 2 calibration."""

import pytest

from repro.adapters.registry import DEFAULT_RANKS
from repro.hardware.gpu import A40_48GB, A100_80GB
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.llm.costmodel import CostModel, CostModelParams
from repro.llm.model import LLAMA_7B, LLAMA_70B
from repro.sim.simulator import Simulator

#: Paper Figure 2: (rank, total TTFT in ms) for a medium (512-token) input on
#: an unloaded A40 + Llama-7B, including the adapter load from host memory.
FIGURE2_TTFT_MS = {8: 74, 16: 78, 32: 88, 64: 107, 128: 144}
MEDIUM_INPUT = 512


@pytest.fixture
def cm():
    return CostModel(LLAMA_7B, A40_48GB)


def _ttft_ms(cm: CostModel, rank: int) -> float:
    link = PcieLink(Simulator(), PcieSpec())
    load = link.transfer_time(LLAMA_7B.adapter_bytes(rank))
    return 1e3 * (cm.prefill_time(MEDIUM_INPUT, rank) + load)


@pytest.mark.parametrize("rank,expected_ms", sorted(FIGURE2_TTFT_MS.items()))
def test_figure2_calibration(cm, rank, expected_ms):
    """Model TTFTs must match the paper's Figure 2 within 3%."""
    got = _ttft_ms(cm, rank)
    assert got == pytest.approx(expected_ms, rel=0.03)


def test_figure2_loading_share_rank128(cm):
    """§3.2: loading is ~17.5% of TTFT for rank 128 on an unloaded system."""
    link = PcieLink(Simulator(), PcieSpec())
    load = link.transfer_time(LLAMA_7B.adapter_bytes(128))
    total = cm.prefill_time(MEDIUM_INPUT, 128) + load
    assert load / total == pytest.approx(0.175, abs=0.02)


def test_prefill_monotone_in_tokens(cm):
    times = [cm.prefill_time(n, 32) for n in (128, 256, 512, 1024)]
    assert times == sorted(times)
    assert times[-1] > times[0]


def test_prefill_monotone_in_rank(cm):
    times = [cm.prefill_time(512, r) for r in (8, 16, 32, 64, 128)]
    assert times == sorted(times)


def test_lora_overhead_significant_even_for_small_ranks(cm):
    """§3.1: adapter execution is expensive even at rank 8 (fixed gather cost)."""
    base = cm.base_prefill_time(512)
    lora8 = cm.lora_prefill_time(512, 8)
    assert lora8 > 0.15 * base


def test_base_request_has_no_lora_cost(cm):
    assert cm.prefill_time(512, None) == cm.base_prefill_time(512)


def test_decode_step_scales_with_batch_and_context(cm):
    lone = cm.decode_step_time(1, 200)
    batch = cm.decode_step_time(16, 3200)
    assert batch > lone
    # The weights read dominates: batching is much cheaper than 16 singles.
    assert batch < 16 * lone


def test_decode_step_zero_batch_is_free(cm):
    assert cm.decode_step_time(0, 0) == 0.0


def test_decode_step_lora_overhead(cm):
    plain = cm.decode_step_time(8, 1600)
    lora = cm.decode_step_time(8, 1600, total_rank=8 * 64, n_lora_requests=8)
    assert lora > plain


def test_iteration_time_combines_prefill_and_decode(cm):
    decode = cm.decode_step_time(4, 800)
    only_prefill = cm.iteration_time([(256, 32)], 0.0)
    only_decode = cm.iteration_time([], decode)
    both = cm.iteration_time([(256, 32)], decode)
    overhead = cm.params.iteration_overhead
    assert both == pytest.approx(only_prefill + only_decode - overhead)


def test_isolated_request_time_components(cm):
    t = cm.isolated_request_time(256, 10, rank=32, adapter_load_time=0.01)
    assert t > 0.01 + cm.prefill_time(256, 32)
    # 9 decode steps, each at least the weights-read floor.
    floor = LLAMA_7B.weight_bytes / A40_48GB.mem_bandwidth_bytes
    assert t > 9 * floor


def test_isolated_request_single_token_is_just_prefill(cm):
    t = cm.isolated_request_time(256, 1, rank=8)
    assert t == pytest.approx(cm.prefill_time(256, 8) + cm.params.iteration_overhead)


def test_isolated_request_rejects_zero_output(cm):
    with pytest.raises(ValueError):
        cm.isolated_request_time(256, 0)


def test_estimate_close_to_exact_isolated(cm):
    exact = cm.isolated_request_time(256, 40, rank=32)
    estimate = cm.estimate_service_time(256, 40, rank=32)
    assert estimate == pytest.approx(exact, rel=0.05)


def test_tensor_parallel_speedup():
    tp1 = CostModel(LLAMA_70B, A100_80GB, compute_speedup=1.0)
    tp4 = CostModel(LLAMA_70B, A100_80GB, compute_speedup=4 * 0.82)
    assert tp4.prefill_time(512, 32) < tp1.prefill_time(512, 32)
    assert tp4.decode_step_time(8, 1600) < tp1.decode_step_time(8, 1600)


def test_invalid_speedup_rejected():
    with pytest.raises(ValueError):
        CostModel(LLAMA_7B, A40_48GB, compute_speedup=0.0)


def test_larger_model_slower():
    small = CostModel(LLAMA_7B, A100_80GB)
    big = CostModel(LLAMA_70B, A100_80GB)
    assert big.prefill_time(512, 32) > small.prefill_time(512, 32)
    assert big.decode_step_time(4, 800) > small.decode_step_time(4, 800)


def test_custom_params_respected():
    fast = CostModel(LLAMA_7B, A40_48GB, CostModelParams(iteration_overhead=0.0))
    decode = fast.decode_step_time(1, 100)
    assert fast.iteration_time([], decode) == decode


# --------------------------------------------------------------------- #
# The folded formulas against the compositions they replaced, bit for bit
# --------------------------------------------------------------------- #
TOKEN_GRID = (1, 2, 3, 7, 64, 127, 512, 1000, 2048, 4095, 8191)
#: Dividing by 1 or 4 is exact, so it cannot tell ``x * n / s`` from
#: ``x / s * n``; a 4-GPU group's speedup (4 x 0.82) can.
SPEEDUPS = (1.0, 4.0, 4 * 0.82)
#: The paper's ranks are powers of two, which also multiply exactly.  A
#: custom rank set can hold others: with 239 the decode step's rank term
#: rounds differently if ``x * rank / s`` becomes ``x / s * rank``.
RANKS = (None, *DEFAULT_RANKS, 12, 100, 239)


def _composed_prefill(cm, n_tokens, rank):
    """``prefill_time`` as it was: base, plus LoRA when there is a rank."""
    t = cm.base_prefill_time(n_tokens)
    if rank is not None:
        t += cm.lora_prefill_time(n_tokens, rank)
    return t


def _composed_estimate(cm, input_tokens, predicted_output_tokens, rank):
    """``estimate_service_time`` as it was: the prefill term, then one
    decode step of a batch of one at the mean context."""
    predicted_output_tokens = max(1, predicted_output_tokens)
    t = _composed_prefill(cm, input_tokens, rank)
    steps = predicted_output_tokens - 1
    avg_context = input_tokens + steps / 2.0
    per_step = cm.decode_step_time(
        1, int(avg_context),
        total_rank=rank or 0,
        n_lora_requests=1 if rank is not None else 0,
    )
    t += steps * (per_step + cm.params.iteration_overhead)
    return t + cm.params.iteration_overhead


@pytest.mark.parametrize("speedup", SPEEDUPS)
def test_prefill_time_is_base_plus_lora_bit_for_bit(speedup):
    cm = CostModel(LLAMA_7B, A40_48GB, compute_speedup=speedup)
    for rank in RANKS:
        for n_tokens in TOKEN_GRID:
            assert cm.prefill_time(n_tokens, rank).hex() == \
                _composed_prefill(cm, n_tokens, rank).hex()


@pytest.mark.parametrize("speedup", SPEEDUPS)
def test_estimate_service_time_matches_its_composition_bit_for_bit(speedup):
    cm = CostModel(LLAMA_7B, A40_48GB, compute_speedup=speedup)
    for rank in RANKS:
        for input_tokens in TOKEN_GRID:
            for predicted in (0, *TOKEN_GRID):
                assert cm.estimate_service_time(
                    input_tokens, predicted, rank).hex() == \
                    _composed_estimate(cm, input_tokens, predicted, rank).hex()
