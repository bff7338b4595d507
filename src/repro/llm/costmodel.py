"""Analytic latency cost model, calibrated against the paper's Figure 2.

The model decomposes iteration latency the same way the paper's §3.1
characterization does:

* **Base prefill** is compute-bound: ``2 * n_params * n_tokens`` FLOPs at the
  GPU's peak fp16 throughput times an efficiency factor.
* **LoRA prefill overhead** comes from S-LoRA's MBGMM gather kernels.  The
  paper (and dLoRA Fig. 5) observe it is expensive *even for small ranks*,
  i.e. it has a large rank-independent component.  We model it as
  ``(fixed + per_rank * rank)`` microseconds per token.
* **Decode step** is memory-bound: one pass over the (sharded) weights plus
  reading every running request's KV cache, plus a small per-request LoRA
  gather overhead and a fixed per-iteration system overhead.

Calibration (Llama-7B on A40, 512-token "medium" input, unloaded system,
10 GB/s effective PCIe):

====  =========  ============  ===========  ==========
rank  base exec  adapter exec  adapter load  TTFT (ms)
====  =========  ============  ===========  ==========
8     57.6       14.0          1.8           73.4   (paper:  74)
16    57.6       17.1          3.4           78.1   (paper:  78)
32    57.6       23.4          6.6           87.6   (paper:  88)
64    57.6       35.9          13.0          106.5  (paper: 107)
128   57.6       60.9          25.8          144.3  (paper: 144)
====  =========  ============  ===========  ==========

The rank-128 loading share is 25.8/144.3 = 17.9% (paper: 17.5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.hardware.gpu import GpuSpec
from repro.llm.model import ModelSpec


@dataclass(frozen=True)
class CostModelParams:
    """Tunable constants of the latency model.

    The defaults reproduce the Figure 2 calibration table above; they are the
    single source of truth for every experiment.
    """

    #: Achieved fraction of peak fp16 FLOPs during prefill.
    flops_efficiency: float = 0.80
    #: Rank-independent LoRA prefill cost, seconds per token.
    lora_prefill_fixed_per_token: float = 21.2e-6
    #: Rank-proportional LoRA prefill cost, seconds per token per rank unit.
    lora_prefill_per_rank_per_token: float = 0.764e-6
    #: Achieved fraction of peak HBM bandwidth during decode.
    hbm_efficiency: float = 1.0
    #: Per-running-request decode overhead (batch bookkeeping), seconds.
    decode_per_request: float = 60e-6
    #: Rank-independent per-request LoRA decode gather cost, seconds.
    lora_decode_fixed: float = 40e-6
    #: Rank-proportional per-request LoRA decode cost, seconds per rank unit.
    lora_decode_per_rank: float = 1.5e-6
    #: Fixed per-iteration system overhead (scheduler, kernel launches), seconds.
    iteration_overhead: float = 1.0e-3


class CostModel:
    """Latency model for one model replica on one (possibly TP) device.

    Args:
        model: Base-model geometry.
        gpu: GPU spec (peak FLOPs, HBM bandwidth).
        params: Cost constants; defaults are the Figure 2 calibration.
        compute_speedup: Effective compute scaling of tensor parallelism
            (1.0 for a single GPU; ``TensorParallelGroup.compute_speedup``
            otherwise).  Both FLOPs and weight/KV reads scale with it because
            weights and KV are sharded across the group.
    """

    def __init__(
        self,
        model: ModelSpec,
        gpu: GpuSpec,
        params: CostModelParams = CostModelParams(),
        compute_speedup: float = 1.0,
    ) -> None:
        if compute_speedup <= 0:
            raise ValueError(f"compute_speedup must be positive, got {compute_speedup}")
        self.model = model
        self.gpu = gpu
        self.params = params
        self.compute_speedup = compute_speedup
        # Pre-derived per-token constants.
        peak_flops = gpu.peak_tflops * 1e12 * params.flops_efficiency * compute_speedup
        self._prefill_s_per_token = model.flops_per_token() / peak_flops
        hbm = gpu.mem_bandwidth_bytes * params.hbm_efficiency * compute_speedup
        self._weights_read_s = model.weight_bytes / hbm
        self._kv_read_s_per_token = model.kv_bytes_per_token / hbm

    # ------------------------------------------------------------------ #
    # Prefill
    # ------------------------------------------------------------------ #
    def base_prefill_time(self, n_tokens: int) -> float:
        """Base-model prefill compute time for ``n_tokens`` input tokens."""
        return self._prefill_s_per_token * n_tokens

    def lora_prefill_time(self, n_tokens: int, rank: int) -> float:
        """Extra prefill time contributed by a LoRA adapter of ``rank``."""
        p = self.params
        per_token = p.lora_prefill_fixed_per_token + p.lora_prefill_per_rank_per_token * rank
        # The gather kernels do not benefit from tensor parallelism as much as
        # the dense matmuls; scale them with the same speedup for simplicity.
        return per_token * n_tokens / self.compute_speedup

    def prefill_time(self, n_tokens: int, rank: Optional[int] = None) -> float:
        """Total prefill compute time for one request (base + LoRA): the
        sum of :meth:`base_prefill_time` and :meth:`lora_prefill_time`,
        computed in place."""
        t = self._prefill_s_per_token * n_tokens
        if rank is not None:
            p = self.params
            t += ((p.lora_prefill_fixed_per_token
                   + p.lora_prefill_per_rank_per_token * rank)
                  * n_tokens / self.compute_speedup)
        return t

    # ------------------------------------------------------------------ #
    # Decode
    # ------------------------------------------------------------------ #
    def decode_step_time(
        self,
        n_requests: int,
        total_context_tokens: int,
        total_rank: int = 0,
        n_lora_requests: int = 0,
    ) -> float:
        """One decode iteration for a batch, from aggregate batch state.

        Args:
            n_requests: Running requests in the batch.
            total_context_tokens: Sum of context lengths (input + generated).
            total_rank: Sum of adapter ranks over LoRA requests in the batch.
            n_lora_requests: How many of the requests use an adapter.
        """
        if n_requests <= 0:
            return 0.0
        p = self.params
        t = self._weights_read_s
        t += self._kv_read_s_per_token * total_context_tokens
        t += p.decode_per_request * n_requests
        t += p.lora_decode_fixed * n_lora_requests / self.compute_speedup
        t += p.lora_decode_per_rank * total_rank / self.compute_speedup
        return t

    # ------------------------------------------------------------------ #
    # Whole iterations and whole requests
    # ------------------------------------------------------------------ #
    def iteration_time(
        self,
        prefill_work: Iterable[tuple[int, Optional[int]]],
        decode_time: float,
    ) -> float:
        """Latency of one engine iteration.

        ``prefill_work`` is an iterable of ``(n_tokens, rank_or_None)`` for the
        requests (or prefill chunks) processed this iteration; ``decode_time``
        is the running batch's :meth:`decode_step_time` (0.0 without one).
        """
        t = self.params.iteration_overhead
        for n_tokens, rank in prefill_work:
            t += self.prefill_time(n_tokens, rank)
        t += decode_time
        return t

    def isolated_request_time(
        self,
        input_tokens: int,
        output_tokens: int,
        rank: Optional[int] = None,
        adapter_load_time: float = 0.0,
    ) -> float:
        """End-to-end latency of a request running alone on an idle system.

        This is the denominator of the paper's per-request *slowdown* metric
        (Figure 8) and the basis of the SLO (5x the average isolated time).
        """
        if output_tokens < 1:
            raise ValueError("a request generates at least one token")
        p = self.params
        overhead = p.iteration_overhead
        t = adapter_load_time
        t += overhead + self.prefill_time(input_tokens, rank)
        # Every later token is one decode step of a batch of one: the terms
        # of decode_step_time(1, context, rank or 0, 0 or 1), summed in its
        # order, so the result is bit-identical to calling it per token.
        weights = self._weights_read_s
        kv = self._kv_read_s_per_token
        per_request = p.decode_per_request
        n_lora = 1 if rank is not None else 0
        lora_fixed = p.lora_decode_fixed * n_lora / self.compute_speedup
        lora_rank = p.lora_decode_per_rank * (rank or 0) / self.compute_speedup
        for context in range(input_tokens + 1, input_tokens + output_tokens):
            t += overhead + (
                weights + kv * context + per_request + lora_fixed + lora_rank)
        return t

    def isolated_ttft(
        self,
        input_tokens: int,
        rank: Optional[int] = None,
        adapter_load_time: float = 0.0,
    ) -> float:
        """Time to first token of a request running alone on an idle system."""
        return (
            adapter_load_time
            + self.params.iteration_overhead
            + self.prefill_time(input_tokens, rank)
        )

    def estimate_service_time(
        self,
        input_tokens: int,
        predicted_output_tokens: int,
        rank: Optional[int] = None,
    ) -> float:
        """Scheduler-facing service-time estimate (uses the *predicted* output).

        A closed-form version of :meth:`isolated_request_time` (no per-token
        loop) — used by the MLQ quota solver and the bypass heuristic, where
        the scheduler only knows predicted lengths.
        """
        p = self.params
        predicted_output_tokens = max(1, predicted_output_tokens)
        steps = predicted_output_tokens - 1
        avg_context = input_tokens + steps / 2.0
        # prefill_time(input_tokens, rank), then decode_step_time(1,
        # int(avg_context), rank or 0, 0 or 1): the same terms in the same
        # order.  A factor of exactly 1 is left out, and an adapter-free
        # request adds no LoRA terms (they would add exactly 0.0).
        t = self._prefill_s_per_token * input_tokens
        per_step = self._weights_read_s
        per_step += self._kv_read_s_per_token * int(avg_context)
        per_step += p.decode_per_request
        if rank is not None:
            t += ((p.lora_prefill_fixed_per_token
                   + p.lora_prefill_per_rank_per_token * rank)
                  * input_tokens / self.compute_speedup)
            per_step += p.lora_decode_fixed / self.compute_speedup
            per_step += p.lora_decode_per_rank * rank / self.compute_speedup
        t += steps * (per_step + p.iteration_overhead)
        return t + p.iteration_overhead
