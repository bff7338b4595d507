"""The serving system: engine, schedulers, adapter managers, presets."""

from repro.serving.admission import AdmitResult, AdmissionContext
from repro.serving.schedulers import (
    Scheduler,
    FifoScheduler,
    SjfScheduler,
)
from repro.serving.adapter_manager import (
    AdapterState,
    AdapterEntry,
    AdapterManagerBase,
    SloraAdapterManager,
)
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.autoscaler import (
    Autoscaler,
    AutoscaleConfig,
    ObservedCapabilityEstimator,
)
from repro.serving.replica import (
    MultiReplicaSystem,
    ReplicaFactory,
    ReplicaHandle,
    ReplicaState,
)
from repro.serving.region import (
    RegionConfig,
    RegionStats,
    ServingRegion,
)

__all__ = [
    "MultiReplicaSystem",
    "ReplicaFactory",
    "ReplicaHandle",
    "ReplicaState",
    "Autoscaler",
    "AutoscaleConfig",
    "ObservedCapabilityEstimator",
    "AdmitResult",
    "AdmissionContext",
    "Scheduler",
    "FifoScheduler",
    "SjfScheduler",
    "AdapterState",
    "AdapterEntry",
    "AdapterManagerBase",
    "SloraAdapterManager",
    "EngineConfig",
    "ServingEngine",
    "ServingRegion",
    "RegionConfig",
    "RegionStats",
]
