"""Hot-path throughput benchmark: the simulator's events/sec trajectory.

Drives the full dispatch -> engine -> finish -> drain pipeline with a large
light-request trace (tiny prefill/decode so per-event bookkeeping, not the
cost model, dominates) over a wide data-parallel fleet — the configuration
where per-probe linear work in the cluster layer hurts most.  Reports
events/sec, wall-clock, and peak RSS; optionally times the headline figure
experiments in ``--quick`` mode and emits everything as JSON.

Usage:
    PYTHONPATH=src python benchmarks/bench_hotpath.py                 # full (1M requests)
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke         # CI-sized run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke --check-min 15000
    PYTHONPATH=src python benchmarks/bench_hotpath.py --json BENCH_hotpath.json \
        --baseline /tmp/bench_baseline.json --figs

``--check-min`` exits non-zero when events/sec lands below the pinned
threshold — the CI perf gate.  ``--traced`` adds runs with a tracer
attached, interleaved with the untraced ones (alternating which runs
first), and ``--check-max-overhead`` gates the tracing overhead: the drop
of the traced runs' median events/sec below the untraced runs' median.
``--baseline`` embeds a previous ``--json``
output (e.g. measured on the pre-optimization tree with this same harness)
and records the speedup against it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.workload.request import Request

#: Headline figures timed by --figs (quick mode, one subprocess each).
HEADLINE_FIGS = (
    "fig26",
    "fig27",
    "fig28_autoscale",
    "fig29_predictive_autoscale",
    "fig30_fault_recovery",
)

#: CI smoke gate: optimized runs clear this with wide margin even on slow
#: shared runners; the pre-optimization hot path cannot reach it.
SMOKE_MIN_EVENTS_PER_SEC = 15_000.0

#: Written into every record: peak RSS depends on the interpreter's object
#: layout, so a memory point is comparable only between equal versions.
VERSIONS = {"python": platform.python_version(), "numpy": np.__version__}

#: Region-scale sweep: total replicas per point (spread over
#: ``REGION_SHARDS`` dispatcher shards).  The 1024-replica point is the
#: sub-linear-dispatch demonstration.
REGION_REPLICA_SWEEP = (64, 256, 1024)
REGION_SHARDS = 8

#: CI gate for the 1024-replica region point: the sharded count-heap control
#: plane clears this with margin even on slow shared runners (locally ~66k
#: events/s, and the hotpath gate's history pins CI at roughly a quarter of
#: local).
SMOKE_MIN_REGION_EVENTS_PER_SEC = 18_000.0


def build_trace(n_requests: int, rps: float, seed: int = 7) -> list:
    """A light Poisson trace: 32-token prefill, 4-token decode, no adapters."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rps, size=n_requests))
    return [
        Request(request_id=i, arrival_time=float(arrivals[i]),
                input_tokens=32, output_tokens=4)
        for i in range(n_requests)
    ]


def run_hotpath(n_requests: int, rps: float, n_replicas: int,
                traced: bool = False) -> dict:
    requests = build_trace(n_requests, rps)
    system = MultiReplicaSystem.build(
        "slora", n_replicas=n_replicas, dispatch_policy="least_loaded",
        predictor_accuracy=None, seed=0,
    )
    tracer = None
    if traced:
        from repro.obs import Tracer
        tracer = Tracer()
        system.attach_tracer(tracer)
    # Sweep garbage from setup (and, under --repeat, from prior runs) so
    # every timed section starts from the same heap state.
    gc.collect()
    start = time.perf_counter()
    system.run_trace(requests)
    elapsed = time.perf_counter() - start
    events = system.sim.processed_events
    finished = sum(1 for r in requests if r.finished)
    if finished != n_requests:
        raise RuntimeError(
            f"bench trace did not complete: {finished}/{n_requests} finished")
    # ru_maxrss is KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "n_requests": n_requests,
        "rps": rps,
        "n_replicas": n_replicas,
        "events": events,
        "elapsed_s": round(elapsed, 3),
        "events_per_sec": round(events / elapsed, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        **VERSIONS,
    }
    if tracer is not None:
        record["traced"] = True
        record["spans"] = len(tracer.spans)
    return record


def run_region_scale(n_requests: int, total_replicas: int, *,
                     rps: float = 16_000.0) -> dict:
    """One region-scale point: ``total_replicas`` behind ``REGION_SHARDS``
    dispatcher shards.

    The offered load is *constant* across fleet widths: the sweep isolates
    the per-arrival dispatch cost as the fleet grows under identical work.
    A linear-scan dispatcher pays O(fleet) per pick, so its events/sec
    collapses with width; the O(log n) count heap holds events/sec roughly
    flat — that flatness is the sub-linear-dispatch evidence the CI gate
    pins."""
    requests = build_trace(n_requests, rps)
    region = ServingRegion.build(
        "slora", n_replicas=total_replicas // REGION_SHARDS,
        dispatch_policy="least_loaded", predictor_accuracy=None, seed=0,
        region=RegionConfig(n_shards=REGION_SHARDS),
    )
    start = time.perf_counter()
    region.run_trace(requests)
    elapsed = time.perf_counter() - start
    events = region.sim.processed_events
    finished = sum(1 for r in requests if r.finished)
    if finished != n_requests:
        raise RuntimeError(
            f"region bench did not complete: {finished}/{n_requests} finished")
    return {
        "n_requests": n_requests,
        "total_replicas": total_replicas,
        "n_shards": REGION_SHARDS,
        "cross_shard_spills": region.stats.cross_shard_spills,
        "cross_shard_steals": region.stats.steals,
        "events": events,
        "elapsed_s": round(elapsed, 3),
        "events_per_sec": round(events / elapsed, 1),
        **VERSIONS,
    }


def run_region_sweep(n_requests: int) -> list:
    """The replica-count scaling sweep at constant offered load — the
    sub-linear-dispatch evidence the CI gate pins."""
    points = []
    for total in REGION_REPLICA_SWEEP:
        point = run_region_scale(n_requests, total)
        points.append(point)
        print(f"region: {total} replicas x {point['n_shards']} shards "
              f"-> {point['events_per_sec']:,.0f} events/s")
    return points


def time_headline_figs() -> dict:
    """Wall-clock of each headline figure experiment in --quick mode."""
    timings = {}
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    for exp in HEADLINE_FIGS:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", exp, "--quick"],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        timings[exp] = round(time.perf_counter() - start, 2)
    return timings


def _print_profile(profiler, top_n: int, json_path=None) -> None:
    """Print the top-N cumulative functions and persist the raw stats.

    The binary dump lands next to the ``--json`` artifact (or in the
    working directory without one) so it survives the run for snakeviz /
    ``pstats`` digging — the printed top-N alone is not enough to chase
    a regression after the fact.
    """
    import pstats

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top_n)
    if json_path:
        prof_path = os.path.splitext(json_path)[0] + ".prof"
    else:
        prof_path = "bench_hotpath.prof"
    profiler.dump_stats(prof_path)
    print(f"wrote profile to {prof_path} "
          f"(inspect with python -m pstats {prof_path})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1_000_000)
    parser.add_argument("--rps", type=float, default=16_000.0)
    parser.add_argument("--replicas", type=int, default=64)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (100k requests)")
    parser.add_argument("--check-min", type=float, default=None, metavar="EV_S",
                        help="exit non-zero below this events/sec")
    parser.add_argument("--figs", action="store_true",
                        help="also time the headline figures in --quick mode")
    parser.add_argument("--profile", type=int, default=None, metavar="N",
                        help="run under cProfile and print the top N "
                             "functions by cumulative time")
    parser.add_argument("--region", action="store_true",
                        help="run the region-scale replica sweep (64..1024 "
                             "replicas) instead of the single hotpath point")
    parser.add_argument("--check-min-region", type=float, default=None,
                        metavar="EV_S",
                        help="exit non-zero when the widest region point "
                             "lands below this events/sec")
    parser.add_argument("--traced", action="store_true",
                        help="re-run the hotpath point with a repro.obs "
                             "Tracer attached and record the overhead delta")
    parser.add_argument("--check-max-overhead", type=float, default=None,
                        metavar="PCT",
                        help="with --traced: exit non-zero when tracing "
                             "costs more than PCT%% throughput")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the hotpath point N times and record the "
                             "fastest; with --traced, N interleaved "
                             "untraced/traced pairs, whose medians give the "
                             "overhead delta; every run's events/s and "
                             "peak RSS are recorded too")
    parser.add_argument("--baseline", type=str, default=None,
                        help="previous --json output to compute speedup against")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the result record to PATH")
    args = parser.parse_args()

    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()

    if args.region:
        region_n = 60_000 if args.smoke else 200_000
        if profiler is not None:
            profiler.enable()
        points = run_region_sweep(region_n)
        if profiler is not None:
            profiler.disable()
            _print_profile(profiler, args.profile, args.json)
        result = {
            "region": points,
            "ci_gate": {
                "smoke_requests": 60_000,
                "min_events_per_sec": SMOKE_MIN_REGION_EVENTS_PER_SEC,
            },
        }
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        threshold = args.check_min_region
        if threshold is not None:
            widest = max(points, key=lambda p: p["total_replicas"])
            if widest["events_per_sec"] < threshold:
                print(f"FAIL: {widest['events_per_sec']:,.0f} events/s at "
                      f"{widest['total_replicas']} replicas is below the "
                      f"pinned minimum {threshold:,.0f}", file=sys.stderr)
                return 1
        return 0

    n = 100_000 if args.smoke else args.requests
    repeats = max(1, args.repeat)

    def best_of(records: list) -> dict:
        # Fastest of N runs: elapsed-time noise on shared runners is
        # strictly additive, so the minimum is the least-polluted sample.
        # Every run's events/s and peak RSS are kept beside it, so a
        # recorded point shows its own spread.  Peak RSS is the process's
        # high-water mark, so later runs read at or above earlier ones:
        # only the first run's is the run's own, and that one is recorded.
        best = max(records, key=lambda record: record["events_per_sec"])
        best["runs_events_per_sec"] = [r["events_per_sec"] for r in records]
        best["median_events_per_sec"] = statistics.median(
            best["runs_events_per_sec"])
        best["runs_peak_rss_mb"] = [r["peak_rss_mb"] for r in records]
        best["peak_rss_mb"] = records[0]["peak_rss_mb"]
        if repeats > 1:
            best["repeats"] = repeats
        return best

    untraced_runs: list = []
    traced_runs: list = []
    if profiler is not None:
        profiler.enable()
    for i in range(repeats):
        # With --traced, alternate which side of a pair runs first, so a
        # drift in machine speed falls on both sides alike.
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order if args.traced else (False,):
            record = run_hotpath(n, args.rps, args.replicas, traced=traced)
            (traced_runs if traced else untraced_runs).append(record)
    if profiler is not None:
        profiler.disable()
        _print_profile(profiler, args.profile, args.json)
    result = {"hotpath": best_of(untraced_runs)}
    hp = result["hotpath"]
    print(f"hotpath: {hp['n_requests']:,} requests over {hp['n_replicas']} "
          f"replicas -> {hp['events']:,} events in {hp['elapsed_s']}s "
          f"= {hp['events_per_sec']:,.0f} events/s "
          f"(peak RSS {hp['peak_rss_mb']:.0f} MB)")

    if args.traced:
        traced = best_of(traced_runs)
        overhead_pct = round(100.0 * (
            1.0 - traced["median_events_per_sec"]
            / hp["median_events_per_sec"]), 1)
        traced["overhead_pct"] = overhead_pct
        result["traced"] = traced
        print(f"traced:  {traced['events']:,} events in "
              f"{traced['elapsed_s']}s = {traced['events_per_sec']:,.0f} "
              f"events/s ({traced['spans']:,} spans); medians "
              f"{traced['median_events_per_sec']:,.0f} traced vs "
              f"{hp['median_events_per_sec']:,.0f} untraced over "
              f"{repeats} interleaved pairs, overhead {overhead_pct:+.1f}%")

    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)["hotpath"]
        result["baseline"] = base
        result["speedup"] = round(
            hp["events_per_sec"] / base["events_per_sec"], 2)
        print(f"baseline: {base['events_per_sec']:,.0f} events/s "
              f"-> speedup {result['speedup']}x")

    if args.figs:
        result["headline_fig_quick_wall_s"] = time_headline_figs()
        for exp, secs in result["headline_fig_quick_wall_s"].items():
            print(f"{exp} --quick: {secs}s")

    result["ci_gate"] = {
        "smoke_requests": 100_000,
        "min_events_per_sec": SMOKE_MIN_EVENTS_PER_SEC,
    }

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    threshold = args.check_min
    if threshold is not None and hp["events_per_sec"] < threshold:
        print(f"FAIL: {hp['events_per_sec']:,.0f} events/s is below the "
              f"pinned minimum {threshold:,.0f}", file=sys.stderr)
        return 1
    if args.check_max_overhead is not None:
        if "traced" not in result:
            print("FAIL: --check-max-overhead needs --traced",
                  file=sys.stderr)
            return 1
        if result["traced"]["overhead_pct"] > args.check_max_overhead:
            print(f"FAIL: tracing overhead "
                  f"{result['traced']['overhead_pct']:.1f}% exceeds the "
                  f"pinned maximum {args.check_max_overhead:.1f}%",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
