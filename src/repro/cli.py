"""Command-line entry point: run any paper experiment or a DP cluster.

Usage::

    python -m repro.cli fig02
    python -m repro.cli fig11 --param duration=120 --param "loads=[6,9,12]"
    python -m repro.cli all --quick
    python -m repro.cli cluster --replicas 4 --policy p2c
    python -m repro.cli verify --quick
    python -m repro.cli verify

``--quick`` shrinks the simulated durations so the whole suite runs in
minutes (the same scaling the benchmarks use); numbers are noisier but the
shapes hold.

The ``verify`` subcommand is the byte-identical gate: it runs every
experiment in one process and compares the sha256 of each experiment's
``--json`` payload entry with the recorded goldens, at full scale in
``tests/golden/experiments.json`` or, with ``--quick``, in
``tests/golden/experiments_quick.json`` (``--update`` re-records them,
``--only ID`` restricts the run).

The ``cluster`` subcommand runs one data-parallel configuration end to end
(§4.4 two-level scheduling: global admission queue + dispatch policy) and
reports per-replica completion counts, dispatch-queue delay percentiles and
the lookup-weighted aggregate cache hit rate.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import platform
import sys
from pathlib import Path

from repro.experiments.registry import get_experiment, list_experiments
from repro.util.wallclock import Stopwatch

#: Downscaled parameters applied by --quick (only where accepted).
QUICK_OVERRIDES = {
    "fig04": {"duration": 60.0},
    "fig06": {"duration": 120.0},
    "fig07": {"n_requests": 500},
    "fig08": {"duration": 90.0},
    "fig11": {"duration": 90.0, "loads": (6.0, 9.0, 12.0)},
    "fig12": {"duration": 90.0, "loads": (6.0, 9.0, 12.0)},
    "fig13": {"duration": 90.0, "loads": (6.0, 9.0, 12.0)},
    "fig14": {"duration": 90.0},
    "fig15": {"duration": 150.0, "window": 30.0},
    "fig16": {"duration": 90.0},
    "fig17": {"duration": 120.0},
    "fig18": {"duration": 120.0},
    "fig19": {"duration": 120.0},
    "fig20": {"duration": 90.0, "pool_sizes": (10, 100, 200)},
    "fig21": {"duration": 90.0},
    "fig22": {"duration": 90.0},
    "fig23": {"duration": 90.0},
    "fig24": {"duration": 90.0, "loads": (4.0, 8.0, 12.0)},
    "fig25": {"duration": 90.0},
    "fig26": {"duration": 60.0, "replica_counts": (1, 2, 4)},
    "fig27": {"duration": 50.0, "warmup": 10.0},
    "fig28_autoscale": {"duration": 200.0},
    "fig29_predictive_autoscale": {"duration": 200.0},
    "fig30_fault_recovery": {"duration": 200.0},
    "fig31_region_scaling": {"duration": 60.0, "warmup": 10.0},
    "fig32_tenant_fairness": {"duration": 90.0, "storm_start": 35.0,
                              "storm_duration": 30.0},
    "abl_fault_chaos": {"duration": 150.0, "mttfs": (None, 60.0, 30.0)},
    "abl_wrs_degree": {"duration": 90.0, "loads": (9.0, 11.0)},
    "abl_eviction_weights": {"duration": 60.0, "grid_step": 0.5},
    "abl_gdsf": {"duration": 90.0},
    "abl_load_stall": {"duration": 90.0, "bandwidths": (None, 3.0, 1.5)},
    "abl_dp_dispatch": {"duration": 90.0},
    "abl_slo_admission": {"duration": 60.0},
    # abl_capability_estimator: no downscale — the degraded replica's tail
    # divergence needs the full 150s trace to compound (it is cheap anyway).
}


#: Recorded sha256 of every experiment's ``--json`` payload entry, at full
#: scale and at ``--quick`` scale.
_GOLDEN_DIR = Path(__file__).resolve().parents[2] / "tests" / "golden"
FULL_GOLDENS = _GOLDEN_DIR / "experiments.json"
QUICK_GOLDENS = _GOLDEN_DIR / "experiments_quick.json"


def _payload_entry(result) -> dict:
    """One experiment's entry in the ``--json`` payload."""
    return {"experiment": result.experiment,
            "description": result.description, "params": result.params,
            "rows": result.rows, "notes": result.notes}


def _payload_digest(entry: dict) -> str:
    text = json.dumps(entry, indent=2, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_param(raw: str) -> tuple[str, object]:
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"--param expects key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    try:
        parsed = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        parsed = value
    return key, parsed


def _cluster_main(argv) -> int:
    """Run one data-parallel cluster configuration and print a report."""
    from repro.experiments.common import standard_registry, standard_trace, trace_slo
    from repro.hardware.cluster import DataParallelCluster
    from repro.hardware.gpu import A40_48GB, GPU_ZOO
    from repro.serving.admission import SloPolicy
    from repro.serving.replica import MultiReplicaSystem
    from repro.systems import PRESETS, resolve_gpu

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli cluster",
        description="Serve one trace on a data-parallel cluster (§4.4).",
    )
    parser.add_argument("--replicas", type=int, default=None,
                        help="replica count (default 4, or the length of "
                             "--replica-specs)")
    parser.add_argument("--policy", default="least_loaded",
                        choices=DataParallelCluster.POLICIES)
    parser.add_argument("--preset", default="chameleon", choices=PRESETS)
    parser.add_argument("--rps", type=float, default=30.0,
                        help="total arrival rate across the cluster")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--warmup", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--spill-factor", type=float, default=1.5,
                        help="bounded_affinity load bound (x cluster mean)")
    parser.add_argument("--no-backpressure", action="store_true",
                        help="force-submit arrivals instead of queueing "
                             "when every replica is saturated")
    parser.add_argument("--replica-specs", metavar="GPU[,GPU...]",
                        help="comma-separated GPU names for a heterogeneous "
                             f"fleet, from {sorted(GPU_ZOO)}")
    parser.add_argument("--no-capability-norm", action="store_true",
                        help="compare raw backlog instead of capability-"
                             "normalized load on mixed-spec fleets")
    parser.add_argument("--slo-ttft", type=float, default=None, metavar="SECONDS",
                        help="TTFT deadline enabling SLO admission control; "
                             "pass 0 to derive the paper's 5x-mean-isolated SLO "
                             "from the trace")
    parser.add_argument("--slo-mode", default="shed", choices=SloPolicy.MODES,
                        help="what to do with arrivals past the SLO knee")
    parser.add_argument("--tenants", type=int, default=None, metavar="N",
                        help="serve a Zipf-skewed N-tenant population "
                             "(SLO classes dealt gold/standard/batch) "
                             "instead of the anonymous trace")
    parser.add_argument("--tenant-skew", type=float, default=1.2,
                        help="Zipf exponent of the tenant shares "
                             "(0 = uniform; needs --tenants)")
    parser.add_argument("--fair", action="store_true",
                        help="weighted-fair admission: per-tenant quota "
                             "lanes (token buckets from the declared "
                             "shares) drained by deficit round-robin "
                             "(needs --tenants and --slo-ttft)")
    parser.add_argument("--autoscale", action="store_true",
                        help="make the fleet elastic: scale out on sustained "
                             "shed-rate/queue-wait pressure, in on sustained "
                             "idleness (--replicas sets the initial fleet, "
                             "default --min-replicas)")
    parser.add_argument("--min-replicas", type=int, default=1,
                        help="autoscale floor (default 1)")
    parser.add_argument("--max-replicas", type=int, default=8,
                        help="autoscale ceiling (default 8)")
    parser.add_argument("--provision-delay", type=float, default=10.0,
                        metavar="SECONDS",
                        help="cold-start delay a scale-out replica pays "
                             "before joining the dispatch set (default 10)")
    parser.add_argument("--autoscale-mode", default="reactive",
                        choices=("reactive", "predictive"),
                        help="reactive scales out on observed pressure only; "
                             "predictive additionally provisions ahead of "
                             "forecast demand (needs --autoscale)")
    parser.add_argument("--forecast-window", type=float, default=30.0,
                        metavar="SECONDS",
                        help="trailing arrival-rate history the predictive "
                             "forecaster keeps (default 30)")
    parser.add_argument("--forecast-horizon", type=float, default=None,
                        metavar="SECONDS",
                        help="forecast lead time (default: provision delay + "
                             "one tick — the full cold start)")
    parser.add_argument("--forecast-cycle", type=float, default=None,
                        metavar="SECONDS",
                        help="workload period enabling the forecaster's "
                             "seasonal phase histogram (predict periodic "
                             "bursts before they re-arrive)")
    parser.add_argument("--fault-schedule", metavar="SPEC",
                        help="scripted faults, comma-separated "
                             "TIME:KIND:REPLICA[:VALUE] entries (KIND in "
                             "crash|degrade|recover|stall; VALUE is the "
                             "degrade rate multiplier or the stall window), "
                             "e.g. '110:crash:1,60:degrade:0:0.5'")
    parser.add_argument("--mttf", type=float, default=None, metavar="SECONDS",
                        help="mean time to failure enabling seeded random "
                             "replica faults (exponential gaps, uniform "
                             "serving-replica targets)")
    parser.add_argument("--mttr", type=float, default=None, metavar="SECONDS",
                        help="mean time to repair: random faults become "
                             "transient outages of this mean window instead "
                             "of crashes (needs --mttf)")
    parser.add_argument("--no-fault-migration", action="store_true",
                        help="strand a crashed replica's work as lost "
                             "instead of re-dispatching it (the no-recovery "
                             "baseline)")
    parser.add_argument("--no-self-heal", action="store_true",
                        help="disable autoscaler failure replacement "
                             "(crashed replicas are not provisioned back)")
    args = parser.parse_args(argv)
    # Only the flags the library never sees are checked here; everything
    # it builds validates itself, and its ValueError becomes a usage error.
    if not args.autoscale and args.autoscale_mode != "reactive":
        parser.error("--autoscale-mode predictive needs --autoscale")
    if not args.autoscale and args.no_self_heal:
        parser.error("--no-self-heal needs --autoscale (static fleets "
                     "never replace replicas)")
    if args.mttr is not None and args.mttf is None:
        parser.error("--mttr needs --mttf (no failures to repair)")
    if args.slo_ttft is not None and args.slo_ttft < 0:
        parser.error(f"--slo-ttft must be >= 0, got {args.slo_ttft}")
    if args.tenant_skew < 0:
        parser.error(f"--tenant-skew must be >= 0, got {args.tenant_skew}")
    if args.fair and args.tenants is None:
        parser.error("--fair needs --tenants (quotas are per tenant)")
    if args.fair and args.slo_ttft is None:
        parser.error("--fair needs --slo-ttft (without a deadline every "
                     "completion counts as attained)")
    if args.warmup >= args.duration:
        parser.error(f"--warmup ({args.warmup:g}s) must be below --duration "
                     f"({args.duration:g}s): only requests arriving after "
                     f"the warmup are reported")
    specs = ([name.strip() for name in args.replica_specs.split(",")]
             if args.replica_specs else None)
    replicas = args.replicas if args.replicas is not None else \
        (len(specs) if specs else (args.min_replicas if args.autoscale else 4))
    try:
        # A40 is build_system's default when no specs are given.
        fleet_gpus = ([resolve_gpu(name) for name in specs] if specs
                      else [A40_48GB])
        registry = standard_registry()
        population = None
        slo_classes = None
        if args.tenants is not None:
            from repro.sim.rng import RngStreams
            from repro.workload.tenants import (
                DEFAULT_SLO_CLASSES, TenantPopulation)

            population = TenantPopulation.build(args.tenants,
                                                skew=args.tenant_skew)
            slo_classes = DEFAULT_SLO_CLASSES
            trace = population.synthesize(
                rps=args.rps, duration=args.duration,
                rng=RngStreams(args.seed).get("trace"), registry=registry)
        else:
            trace = standard_trace(args.rps, args.duration, registry,
                                   seed=args.seed)
        slo_policy = None
        if args.slo_ttft is not None:
            if args.slo_ttft > 0:
                deadline = args.slo_ttft
            else:
                # The derived 5x-mean-isolated deadline must reflect the GPUs
                # actually serving the trace, averaged over a mixed fleet.
                deadline = sum(
                    trace_slo(trace, registry, gpu=gpu) for gpu in fleet_gpus
                ) / len(fleet_gpus)
            slo_policy = SloPolicy(ttft_deadline=deadline, mode=args.slo_mode,
                                   classes=slo_classes)
        tenancy = None
        if args.fair:
            from repro.serving.admission import TenantFairnessPolicy

            tenancy = TenantFairnessPolicy.from_shares(
                population.shares(), capacity_rps=args.rps,
                classes=slo_classes)
        autoscale = None
        if args.autoscale:
            from repro.serving.autoscaler import AutoscaleConfig

            autoscale = AutoscaleConfig(
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
                provision_delay=args.provision_delay,
                queue_wait_threshold=(slo_policy.ttft_deadline / 2
                                      if slo_policy is not None else 2.0),
                mode=args.autoscale_mode,
                forecast_window=args.forecast_window,
                forecast_horizon=args.forecast_horizon,
                forecast_cycle=args.forecast_cycle,
                self_heal=not args.no_self_heal,
            )
        cluster = MultiReplicaSystem.build(
            args.preset, n_replicas=replicas, dispatch_policy=args.policy,
            backpressure=not args.no_backpressure,
            spill_factor=args.spill_factor,
            slo_policy=slo_policy, replica_specs=specs,
            normalize_capability=not args.no_capability_norm,
            autoscale=autoscale,
            fault_schedule=args.fault_schedule, mttf=args.mttf,
            mttr=args.mttr, fault_migrate=not args.no_fault_migration,
            registry=registry, seed=args.seed, tenancy=tenancy,
        )
    except ValueError as exc:
        parser.error(str(exc))
    watch = Stopwatch()
    cluster.run_trace(trace.fresh())
    summary = cluster.summary(warmup=args.warmup)
    extra = summary.extra

    print(f"[cluster] {args.preset} x{replicas} policy={args.policy} "
          f"@ {args.rps} RPS for {args.duration}s (seed {args.seed})")
    if specs:
        weights = ", ".join(f"{w:.2f}" for w in cluster.capabilities())
        print(f"  replica specs             {specs} (capability weights "
              f"{weights})")
    print(f"  completed requests        {summary.n_requests}")
    print(f"  per-replica counts        {extra['per_replica_counts']}")
    print(f"  load imbalance (max/mean) {extra['load_imbalance']:.3f}")
    print(f"  aggregate hit rate        {extra['aggregate_hit_rate']:.3f} "
          f"(lookup-weighted)")
    print(f"  p50/p99 TTFT              {summary.p50_ttft:.3f}s / "
          f"{summary.p99_ttft:.3f}s")
    print(f"  dispatch-queue delay      p50={extra['p50_dispatch_queue_delay']:.4f}s "
          f"p99={extra['p99_dispatch_queue_delay']:.4f}s "
          f"({extra['cluster_queued']} arrivals queued)")
    if slo_policy is not None:
        print(f"  SLO admission ({slo_policy.mode})      "
              f"deadline={slo_policy.ttft_deadline:.2f}s "
              f"shed={extra['cluster_shed']} "
              f"deprioritized={extra['cluster_deprioritized']}")
        print(f"  goodput                   {extra['goodput_rps']:.2f} RPS "
              f"(SLO attainment {extra['cluster_slo_attainment']:.3f}, "
              f"shed rate {extra['shed_rate']:.3f})")
    if tenancy is not None:
        attain = ", ".join(
            f"{t}:{a:.3f}" for t, a in zip(extra["tenant_ids"],
                                           extra["tenant_attainment"]))
        print(f"  tenant fairness           Jain "
              f"{extra['tenant_fairness_jain']:.3f}, attainment spread "
              f"{extra['tenant_attainment_spread']:.3f}")
        print(f"  tenant attainment         {attain}")
        print(f"  quota work                "
              f"{sum(extra['tenant_quota_throttles'])} throttles / "
              f"{sum(extra['tenant_quota_borrows'])} borrows")
    if args.policy == "bounded_affinity":
        print(f"  affinity spills           {extra['affinity_spills']}")
    if args.autoscale:
        mode_note = ""
        if args.autoscale_mode == "predictive":
            mode_note = (f" ({extra['predictive_scale_out_events']} "
                         f"forecast-driven)")
        print(f"  autoscale ({args.autoscale_mode})      "
              f"[{args.min_replicas}, "
              f"{args.max_replicas}] peak fleet {extra['peak_fleet_size']}, "
              f"{extra['scale_out_events']} out{mode_note} / "
              f"{extra['scale_in_events']} in")
        print(f"  replica-seconds           {extra['replica_seconds']:.1f} "
              f"(goodput {extra['goodput_per_replica_second']:.3f} "
              f"req/replica-s)")
        for event in extra["scale_events"]:
            tag = ""
            if event.get("reason") == "predictive":
                tag = " [forecast]"
            elif event.get("reason") == "failure_replacement":
                tag = " [self-heal]"
            print(f"    t={event['time']:7.1f}s {event['action']:<9} "
                  f"replicas {event['replicas']} -> fleet "
                  f"{event['fleet_size']} (shed_rate {event['shed_rate']:.3f} "
                  f"queue_wait {event['queue_wait']:.2f}s util "
                  f"{event['utilization']:.2f}){tag}")
    if cluster.fault_injector is not None:
        print(f"  faults                    "
              f"{extra['cluster_failures']} crashes / "
              f"{extra['cluster_stalls']} stalls / "
              f"{cluster.fault_injector.degrades} degrades")
        print(f"  recovery                  "
              f"{extra['cluster_migrations']} migrations "
              f"(max retry {extra['max_retry_count']}), "
              f"{extra['cluster_lost']} lost, availability "
              f"{extra['availability']:.4f}")
        for fault in extra["fault_log"]:
            detail = ", ".join(f"{k}={v}" for k, v in fault.items()
                               if k not in ("time", "kind", "replica"))
            print(f"    t={fault['time']:7.1f}s {fault['kind']:<8} "
                  f"replica {fault['replica']}"
                  f"{' (' + detail + ')' if detail else ''}")
    print(f"(elapsed: {watch.elapsed():.1f}s)")
    return 0


def _trace_main(argv) -> int:
    """Record one run with the tracer + metrics registry attached and
    export it: a Chrome/Perfetto trace-event JSON (open the file at
    ui.perfetto.dev — one track per dispatcher shard, one per replica),
    an optional metrics CSV/JSON timeseries, and a span-waterfall report
    for the slowest requests."""
    from repro.experiments.common import standard_registry, standard_trace
    from repro.hardware.cluster import DataParallelCluster
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs.export import slow_trace_report, write_metrics, write_perfetto
    from repro.serving.admission import SloPolicy
    from repro.serving.replica import MultiReplicaSystem
    from repro.systems import PRESETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli trace",
        description="Record a run's request-lifecycle telemetry and export "
                    "a Perfetto-openable trace (see repro.obs).",
    )
    parser.add_argument("--out", default="trace.json", metavar="PATH",
                        help="Chrome/Perfetto trace-event JSON output "
                             "(default trace.json; load it at "
                             "ui.perfetto.dev)")
    parser.add_argument("--preset", default="chameleon", choices=PRESETS)
    parser.add_argument("--replicas", type=int, default=2,
                        help="replica count (per shard with --shards > 1)")
    parser.add_argument("--shards", type=int, default=1,
                        help="dispatcher shards; > 1 records a region run "
                             "with spill/steal annotations")
    parser.add_argument("--policy", default="least_loaded",
                        choices=DataParallelCluster.POLICIES)
    parser.add_argument("--rps", type=float, default=20.0)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--slo-ttft", type=float, default=None,
                        metavar="SECONDS",
                        help="TTFT deadline enabling SLO admission control "
                             "(shed/deprioritize instants land on the "
                             "dispatcher track)")
    parser.add_argument("--slowest", type=int, default=0, metavar="K",
                        help="print span waterfalls for the K worst-TTFT "
                             "requests")
    parser.add_argument("--metrics", metavar="PATH",
                        help="also dump the sampled metrics timeseries "
                             "(.csv or .json; render the .json with "
                             "repro.experiments.report.metrics_markdown)")
    parser.add_argument("--metrics-interval", type=float, default=5.0,
                        metavar="SECONDS",
                        help="metrics sampling period (default 5)")
    args = parser.parse_args(argv)
    # Only --slowest is read by the CLI alone; everything else validates
    # itself in the library, and its ValueError becomes a usage error.
    if args.slowest < 0:
        parser.error(f"--slowest must be >= 0, got {args.slowest}")

    tracer = Tracer()
    metrics = MetricsRegistry()
    try:
        registry = standard_registry()
        trace = standard_trace(args.rps, args.duration, registry,
                               seed=args.seed)
        slo_policy = (SloPolicy(ttft_deadline=args.slo_ttft)
                      if args.slo_ttft is not None else None)
        if args.shards != 1:
            from repro.serving.region import RegionConfig, ServingRegion

            system = ServingRegion.build(
                args.preset, n_replicas=args.replicas,
                dispatch_policy=args.policy, seed=args.seed,
                registry=registry, slo_policy=slo_policy,
                region=RegionConfig(n_shards=args.shards))
            sim = system.sim
        else:
            from repro.sim.simulator import Simulator

            sim = Simulator()
            system = MultiReplicaSystem.build(
                args.preset, n_replicas=args.replicas,
                dispatch_policy=args.policy, sim=sim, seed=args.seed,
                registry=registry, slo_policy=slo_policy)
        system.attach_tracer(tracer)
        system.attach_metrics(metrics)
        metrics.install(sim, args.metrics_interval, until=args.duration)
    except ValueError as exc:
        parser.error(str(exc))

    watch = Stopwatch()
    system.run_trace(trace.fresh())
    summary = system.summary()

    write_perfetto(tracer, args.out)
    print(f"[trace] {args.preset} x{args.replicas}"
          f"{f' x{args.shards} shards' if args.shards > 1 else ''} "
          f"policy={args.policy} @ {args.rps} RPS for {args.duration}s "
          f"(seed {args.seed})")
    print(f"  completed requests        {summary.n_requests}")
    print(f"  p50/p99 TTFT              {summary.p50_ttft:.3f}s / "
          f"{summary.p99_ttft:.3f}s")
    print(f"  spans recorded            {len(tracer.spans)} "
          f"({', '.join(sorted(tracer.span_names()))})")
    if tracer.instants:
        print(f"  annotations               {len(tracer.instants)} "
              f"({', '.join(sorted(tracer.instant_names()))})")
    print(f"  tracks                    {len(tracer.tracks)} "
          f"(1 dispatcher/shard + 1/replica)")
    print(f"  wrote {args.out} (open at ui.perfetto.dev)")
    if args.metrics:
        write_metrics(metrics, args.metrics)
        print(f"  wrote {args.metrics} ({len(metrics.samples)} samples x "
              f"{len(metrics.column_names())} columns)")
    if args.slowest:
        print()
        print(slow_trace_report(tracer, args.slowest))
    print(f"(elapsed: {watch.elapsed():.1f}s)")
    return 0


def _verify_main(argv) -> int:
    """Run every experiment and compare the sha256 of its ``--json``
    payload entry with the recorded goldens (full scale, or ``--quick``
    scale); exit 1 listing every experiment that moved."""
    import numpy as np

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli verify",
        description="Check every experiment's --json output against its "
                    "recorded sha256 (tests/golden/experiments.json, or "
                    "tests/golden/experiments_quick.json with --quick).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="run with the --quick overrides and check "
                             "their goldens")
    parser.add_argument("--update", action="store_true",
                        help="re-record the goldens instead of comparing")
    parser.add_argument("--only", action="append", default=[], metavar="ID",
                        help="check only this experiment (repeatable)")
    args = parser.parse_args(argv)
    known = list_experiments()
    unknown = [i for i in args.only if i not in known]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")
    path = QUICK_GOLDENS if args.quick else FULL_GOLDENS
    golden = (json.loads(path.read_text())
              if path.exists() else {"experiments": {}})
    recorded = golden["experiments"]
    targets = args.only or known
    moved = []
    for experiment_id in targets:
        watch = Stopwatch()
        params = QUICK_OVERRIDES.get(experiment_id, {}) if args.quick else {}
        result = get_experiment(experiment_id)(**params)
        digest = _payload_digest(_payload_entry(result))
        if args.update:
            status = "recorded"
            recorded[experiment_id] = digest
        elif recorded.get(experiment_id) == digest:
            status = "ok"
        else:
            status = "MOVED" if experiment_id in recorded else "NO GOLDEN"
            moved.append(experiment_id)
        print(f"{experiment_id:<28} {status:<9} ({watch.elapsed():.1f}s)",
              flush=True)
    if args.update:
        golden = {"python": platform.python_version(),
                  "numpy": np.__version__,
                  "experiments": dict(sorted(recorded.items()))}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(golden, indent=2) + "\n")
        print(f"wrote {len(targets)} digest(s) to {path}")
        return 0
    if moved:
        print(f"{len(moved)} of {len(targets)} experiment(s) differ from "
              f"the goldens: {', '.join(moved)}")
        return 1
    print(f"all {len(targets)} experiment(s) match the goldens")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cluster":
        return _cluster_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "verify":
        return _verify_main(argv[1:])
    if argv and argv[0] == "lint":
        # Determinism-discipline analyzer (see repro.analysis): checks the
        # package tree by default, or any paths passed after 'lint'.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the Chameleon paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig11), 'all', 'list', "
                             "'cluster', 'trace', 'verify' or 'lint' (see "
                             "'<subcommand> --help')")
    parser.add_argument("--quick", action="store_true",
                        help="shrink durations for a fast, noisier pass")
    parser.add_argument("--param", action="append", default=[],
                        type=_parse_param, metavar="KEY=VALUE",
                        help="override an experiment parameter (repeatable)")
    parser.add_argument("--plot", action="store_true",
                        help="render an ASCII chart alongside the table")
    parser.add_argument("--json", metavar="PATH",
                        help="also write results as JSON to PATH")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    targets = list_experiments() if args.experiment == "all" else [args.experiment]
    collected = []
    for experiment_id in targets:
        run = get_experiment(experiment_id)
        params = dict(QUICK_OVERRIDES.get(experiment_id, {})) if args.quick else {}
        params.update(dict(args.param))
        watch = Stopwatch()
        result = run(**params)
        elapsed = watch.elapsed()
        print(result.to_table())
        if args.plot:
            from repro.viz import result_chart

            chart = result_chart(result)
            if chart:
                print()
                print(chart)
        print(f"(elapsed: {elapsed:.1f}s)")
        print()
        collected.append(result)
    if args.json:
        payload = [_payload_entry(r) for r in collected]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
