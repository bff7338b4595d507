"""Experiment registry: id -> run entry point."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    abl_capability_estimator,
    abl_dp_dispatch,
    abl_eviction_weights,
    abl_fault_chaos,
    abl_gdsf,
    abl_load_stall,
    abl_slo_admission,
    abl_wrs_degree,
    fig02_rank_breakdown,
    fig03_input_sweep,
    fig04_pcie_bw,
    fig05_tp_loading,
    fig06_memory_timeline,
    fig07_serial_cdf,
    fig08_slowdown_cdf,
    fig11_p99_ttft_load,
    fig12_tbt,
    fig13_p50_ttft,
    fig14_load_latency_cdf,
    fig15_ttft_timeline,
    fig16_queue_delay,
    fig17_cache_policies,
    fig18_prefetch,
    fig19_predictor_accuracy,
    fig20_adapter_sensitivity,
    fig21_traces,
    fig22_static_vs_dynamic,
    fig23_model_scaling,
    fig24_memory_scaling,
    fig25_tensor_parallel,
    fig26_dp_scaling,
    fig27_hetero_cluster,
    fig28_autoscale,
    fig29_predictive_autoscale,
    fig30_fault_recovery,
    fig31_region_scaling,
    fig32_tenant_fairness,
)

EXPERIMENTS: dict[str, Callable] = {
    "fig02": fig02_rank_breakdown.run,
    "fig03": fig03_input_sweep.run,
    "fig04": fig04_pcie_bw.run,
    "fig05": fig05_tp_loading.run,
    "fig06": fig06_memory_timeline.run,
    "fig07": fig07_serial_cdf.run,
    "fig08": fig08_slowdown_cdf.run,
    "fig11": fig11_p99_ttft_load.run,
    "fig12": fig12_tbt.run,
    "fig13": fig13_p50_ttft.run,
    "fig14": fig14_load_latency_cdf.run,
    "fig15": fig15_ttft_timeline.run,
    "fig16": fig16_queue_delay.run,
    "fig17": fig17_cache_policies.run,
    "fig18": fig18_prefetch.run,
    "fig19": fig19_predictor_accuracy.run,
    "fig20": fig20_adapter_sensitivity.run,
    "fig21": fig21_traces.run,
    "fig22": fig22_static_vs_dynamic.run,
    "fig23": fig23_model_scaling.run,
    "fig24": fig24_memory_scaling.run,
    "fig25": fig25_tensor_parallel.run,
    "fig26": fig26_dp_scaling.run,
    "fig27": fig27_hetero_cluster.run,
    "fig28_autoscale": fig28_autoscale.run,
    "fig29_predictive_autoscale": fig29_predictive_autoscale.run,
    "fig30_fault_recovery": fig30_fault_recovery.run,
    "fig31_region_scaling": fig31_region_scaling.run,
    "fig32_tenant_fairness": fig32_tenant_fairness.run,
    # Ablations of design choices and of our modeling assumptions.
    "abl_capability_estimator": abl_capability_estimator.run,
    "abl_fault_chaos": abl_fault_chaos.run,
    "abl_wrs_degree": abl_wrs_degree.run,
    "abl_eviction_weights": abl_eviction_weights.run,
    "abl_gdsf": abl_gdsf.run,
    "abl_load_stall": abl_load_stall.run,
    "abl_dp_dispatch": abl_dp_dispatch.run,
    "abl_slo_admission": abl_slo_admission.run,
}


def list_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Callable:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {list_experiments()}"
        ) from None
