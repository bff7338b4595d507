"""System presets: every configuration the paper evaluates, by name.

``build_system(preset, **kwargs)`` serves a preset on a 1-replica
:class:`~repro.serving.replica.MultiReplicaSystem` without backpressure, so
one engine runs through the same dispatcher, run loop and summary as a
fleet; its parts are on ``system.replicas[0]``.  :func:`build_replica`
wires one replica — GPU (or TP group), PCIe link, cost model, adapter
registry, predictor, scheduler, adapter manager, engine — on a given clock,
for the cluster's :class:`~repro.serving.replica.ReplicaFactory`:

=====================  ==========================  ==============================
preset                 scheduler                   adapter management
=====================  ==========================  ==============================
slora                  FIFO                        fetch-on-demand, no cache
slora_sjf              SJF (µServe)                fetch-on-demand, no cache
slora_chunked          FIFO + chunked prefill      fetch-on-demand, no cache
chameleon              Chameleon MLQ               Chameleon cache (compound score)
chameleon_nocache      Chameleon MLQ               fetch-on-demand, no cache
chameleon_nosched      FIFO                        Chameleon cache
chameleon_lru          Chameleon MLQ               Chameleon cache, LRU eviction
chameleon_fairshare    Chameleon MLQ               Chameleon cache, equal weights
chameleon_gdsf         Chameleon MLQ               Chameleon cache, GDSF eviction
chameleon_prefetch     Chameleon MLQ               cache + histogram prefetcher
chameleon_static       static 4-queue MLQ          Chameleon cache
chameleon_outputonly   MLQ, WRS = output only      Chameleon cache
=====================  ==========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.adapters.registry import AdapterRegistry
from repro.core.cache import CachePrefetcher, ChameleonCacheManager
from repro.core.eviction import make_policy
from repro.core.mlq import MlqConfig, MlqScheduler
from repro.core.wrs import WorkloadBounds, WrsParams
from repro.hardware.cluster import TensorParallelGroup
from repro.hardware.gpu import A40_48GB, GPU_ZOO, GpuDevice, GpuSpec
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.llm.costmodel import CostModel, CostModelParams
from repro.llm.model import LLAMA_7B, ModelSpec
from repro.predictor.output_length import OutputLengthPredictor
from repro.serving.adapter_manager import AdapterManagerBase, SloraAdapterManager
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.schedulers import FifoScheduler, Scheduler, SjfScheduler
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.workload.trace import SPLITWISE_PROFILE, TraceProfile

if TYPE_CHECKING:
    from repro.serving.replica import MultiReplicaSystem

PRESETS = (
    "slora",
    "slora_sjf",
    "slora_chunked",
    "chameleon",
    "chameleon_nocache",
    "chameleon_nosched",
    "chameleon_lru",
    "chameleon_fairshare",
    "chameleon_gdsf",
    "chameleon_prefetch",
    "chameleon_static",
    "chameleon_outputonly",
)

#: Sarathi-style prefill token budget for the chunked-prefill baseline.
DEFAULT_CHUNK_SIZE = 512


@dataclass
class Replica:
    """One replica's wired parts, as ``MultiReplicaSystem.replicas`` holds
    them: the engine and the pieces around it that callers read."""

    engine: ServingEngine
    gpu: GpuDevice
    link: PcieLink
    cost_model: CostModel
    scheduler: Scheduler
    adapter_manager: AdapterManagerBase
    predictor: Optional[OutputLengthPredictor]


def resolve_gpu(name: "GpuSpec | str") -> GpuSpec:
    """Resolve a GPU-zoo name to its spec (specs pass through unchanged)."""
    if isinstance(name, GpuSpec):
        return name
    try:
        return GPU_ZOO[name]
    except KeyError:
        raise ValueError(
            f"unknown GPU {name!r}; choose from {sorted(GPU_ZOO)}"
        ) from None


def default_bounds(
    registry: AdapterRegistry,
    profile: TraceProfile = SPLITWISE_PROFILE,
) -> WorkloadBounds:
    """WRS normalization bounds from a trace profile and an adapter pool."""
    return WorkloadBounds(
        max_input_tokens=profile.max_input_tokens,
        max_output_tokens=profile.max_output_tokens,
        max_adapter_bytes=registry.max_size_bytes,
    )


def build_system(preset: str, **kwargs) -> "MultiReplicaSystem":
    """Serve ``preset`` on one engine behind the cluster dispatcher.

    Keyword arguments are :func:`build_replica`'s (``seed``, ``registry``,
    ``engine_config``, ...) or :meth:`MultiReplicaSystem.build
    <repro.serving.replica.MultiReplicaSystem.build>`'s own (``sim``).
    With one replica every dispatch policy submits each arrival to it on
    the spot; ``round_robin`` does so without keeping a load index.
    """
    from repro.serving.replica import MultiReplicaSystem  # avoid a cycle

    return MultiReplicaSystem.build(
        preset, n_replicas=1, dispatch_policy="round_robin",
        backpressure=False, **kwargs)


def build_replica(
    preset: str,
    *,
    sim: Simulator,
    model: ModelSpec = LLAMA_7B,
    gpu: "GpuSpec | str" = A40_48GB,
    gpu_memory_bytes: Optional[int] = None,
    tp_degree: int = 1,
    registry: Optional[AdapterRegistry] = None,
    n_adapters: int = 100,
    profile: TraceProfile = SPLITWISE_PROFILE,
    predictor_accuracy: Optional[float] = 0.8,
    slo: float = 5.0,
    seed: int = 0,
    pcie: PcieSpec = PcieSpec(),
    cost_params: CostModelParams = CostModelParams(),
    engine_config: Optional[EngineConfig] = None,
    mlq_config: Optional[MlqConfig] = None,
    link_keep_log: bool = False,
) -> Replica:
    """Wire one replica of a named preset (see module docstring) on ``sim``.

    ``slo`` feeds the MLQ quota solver; experiments pass the trace-derived
    SLO (5x mean isolated latency).  ``predictor_accuracy=None`` disables the
    predictor (only valid for presets that do not need predictions).
    ``gpu`` also accepts a GPU-zoo name (e.g. ``"a100-80gb"``), which is how
    heterogeneous replica specs and the CLI name mixed fleets.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    if isinstance(gpu, str):
        gpu = resolve_gpu(gpu)

    if tp_degree > 1:
        device: GpuDevice = TensorParallelGroup(gpu, tp_degree)
        if gpu_memory_bytes is not None:
            raise ValueError("use the GpuSpec to size memory for TP groups")
    else:
        device = GpuDevice(gpu, memory_bytes=gpu_memory_bytes)
    link = PcieLink(sim, pcie)
    link.keep_log = link_keep_log
    if registry is None:
        registry = AdapterRegistry.build(model, n_adapters)
    speedup = device.compute_speedup if isinstance(device, TensorParallelGroup) else 1.0
    cost_model = CostModel(model, gpu, cost_params, compute_speedup=speedup)

    predictor = None
    if predictor_accuracy is not None:
        predictor = OutputLengthPredictor(RngStreams(seed).get("predictor"),
                                          accuracy=predictor_accuracy)

    engine_config = engine_config or EngineConfig()
    if preset == "slora_chunked" and engine_config.chunk_size is None:
        # replace() keeps every other caller-set field (max_batch_size,
        # load_stall_bandwidth, ...) intact.
        engine_config = replace(engine_config, chunk_size=DEFAULT_CHUNK_SIZE)

    bounds = default_bounds(registry, profile)
    scheduler = _build_scheduler(preset, model, registry, cost_model, bounds, slo, mlq_config)
    manager = _build_manager(preset, sim, device, link, registry)

    if scheduler.needs_predictions and predictor is None:
        raise ValueError(f"preset {preset!r} needs an output-length predictor")

    engine = ServingEngine(
        sim=sim, gpu=device, link=link, model=model, cost_model=cost_model,
        registry=registry, scheduler=scheduler, adapter_manager=manager,
        predictor=predictor, config=engine_config,
    )
    return Replica(
        engine=engine, gpu=device, link=link, cost_model=cost_model,
        scheduler=scheduler, adapter_manager=manager, predictor=predictor,
    )


def _build_scheduler(
    preset: str,
    model: ModelSpec,
    registry: AdapterRegistry,
    cost_model: CostModel,
    bounds: WorkloadBounds,
    slo: float,
    mlq_config: Optional[MlqConfig],
) -> Scheduler:
    if preset in ("slora", "slora_chunked", "chameleon_nosched"):
        return FifoScheduler()
    if preset == "slora_sjf":
        return SjfScheduler()
    config = mlq_config
    if config is None:
        if preset == "chameleon_static":
            config = MlqConfig(slo=slo, static_k=4)
        elif preset == "chameleon_outputonly":
            config = MlqConfig(slo=slo, wrs_params=WrsParams(mode="output_only"))
        else:
            config = MlqConfig(slo=slo)
    return MlqScheduler(model, registry, cost_model, bounds, config)


def _build_manager(
    preset: str,
    sim: Simulator,
    device: GpuDevice,
    link: PcieLink,
    registry: AdapterRegistry,
) -> AdapterManagerBase:
    if preset in ("slora", "slora_sjf", "slora_chunked", "chameleon_nocache"):
        return SloraAdapterManager(sim, device, link, registry)
    policy_name = {
        "chameleon_lru": "lru",
        "chameleon_fairshare": "fairshare",
        "chameleon_gdsf": "gdsf",
    }.get(preset, "chameleon")
    policy = make_policy(policy_name, link_bandwidth=link.spec.bandwidth_bytes)
    prefetcher = None
    if preset == "chameleon_prefetch":
        prefetcher = CachePrefetcher(sim)
    return ChameleonCacheManager(
        sim, device, link, registry, policy=policy, prefetcher=prefetcher
    )
