"""Ablation: dispatch policies for data-parallel replicas (§4.4).

With DP, Chameleon replicates the adapter cache per engine and uses a
two-level scheduler.  The global dispatch policy interacts with the caches:
adapter-affinity routing concentrates each adapter's requests on one replica,
raising per-replica hit rates over cache-oblivious routing — but unbounded
affinity lets a hot adapter swamp one replica, which is what the bounded
variant's spill threshold prevents.  The sweep also covers the load-aware
policies (JSQ, power-of-two-choices, token-weighted JSQ); see the policy
table in :mod:`repro.serving.replica`.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Row,
    standard_registry,
    standard_trace,
)
from repro.serving.replica import MultiReplicaSystem


def run(
    rps: float = 30.0,
    duration: float = 180.0,
    n_replicas: int = 4,
    warmup: float = 20.0,
    seed: int = 1,
    policies=("round_robin", "least_loaded", "p2c", "token_weighted",
              "adapter_affinity", "bounded_affinity"),
) -> ExperimentResult:
    registry = standard_registry()
    trace = standard_trace(rps, duration, registry, seed=seed)
    rows = []
    for policy in policies:
        cluster = MultiReplicaSystem.build(
            "chameleon", n_replicas=n_replicas, dispatch_policy=policy,
            registry=registry, seed=seed,
        )
        cluster.run_trace(trace.fresh())
        summary = cluster.summary(warmup=warmup)
        rows.append(Row(
            policy=policy,
            p99_ttft_s=summary.p99_ttft,
            p50_ttft_s=summary.p50_ttft,
            mean_hit_rate=cluster.mean_hit_rate(),
            agg_hit_rate=cluster.aggregate_hit_rate(),
            load_imbalance=summary.extra["load_imbalance"],  # max/mean, as in fig26
            p99_qdelay_s=summary.extra["p99_dispatch_queue_delay"],
        ))
    return ExperimentResult(
        experiment="abl_dp_dispatch",
        description=f"DP dispatch policies across {n_replicas} replicas "
                    f"@ {rps} RPS total",
        rows=rows,
        params={"rps": rps, "duration": duration, "n_replicas": n_replicas},
        notes=["adapter-affinity exploits the per-replica caches (§4.4: the "
               "cache is replicated across DP engines)",
               "agg_hit_rate weights replicas by lookup volume; "
               "bounded_affinity trades a little affinity for balance"],
    )
