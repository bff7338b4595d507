"""The repository benchmark: what reproducing the paper's results costs.

Each run synthesizes one workload's trace from ``--seed``, builds the
system, replays the trace through ``run_trace`` and ``summary()``, checks
the output, and repeats the whole set-up and replay until ``--seconds``
are used.  Throughputs come from the fastest time of each slice of the
replay (see ``SLICES``), set-up time from the fastest set-up; the
simulated results are identical in every replay (a difference fails the
run as nondeterminism).

    python3 perfbench/run.py --workload paper-mlq --seed 1
    python3 perfbench/run.py --workload paper-mlq --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --workload paper-mlq --seed 1 --record-digest

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json from untraced replays.
``--trace 1`` runs one untraced replay, then traced ones, and reports the
per-layer metrics: the traced replays time each layer through wrappers
installed on instances (see ``layers.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted`` (replays run), ``failed`` (always 0: a replay that fails a
check ends the run with exit code 1 and no result) and ``metrics``.
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
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Fewest untraced replays per run, and fewest traced replays in a
#: ``--trace 1`` run (their counts are compared).
MIN_REPLAYS = 3
MIN_TRACED = 2

#: Every replay of a run does the same work, so its wall time is recorded
#: per slice: the simulated span up to the last arrival is cut into this
#: many equal parts by no-op marker events (the last slice also holds the
#: drain after the last arrival).  The machine's speed drifts by up to 2x
#: within tens of seconds; summing each slice's fastest time over the
#: replays, plus the fastest ``summary()``, gives a replay time that such
#: slow phases hardly touch.  The end-to-end throughputs are computed from
#: it; ``setup_s`` is likewise the fastest of the run's identical set-ups.
SLICES = 20

_perf = time.perf_counter


@dataclass
class Replay:
    """Measurements and outputs of one set-up plus replay."""

    synthesize_s: float
    build_s: float
    replay_s: float
    summary_s: float
    generated: int
    finished: int
    output_tokens: int
    events: int
    digest: str
    #: Wall seconds of each of the ``SLICES`` slices; they sum to replay_s.
    slices: list
    #: Program counters that must repeat exactly in every replay.
    counters: tuple
    sim: dict
    layers: dict = field(default_factory=dict)
    traced: bool = False

    @property
    def setup_s(self) -> float:
        return self.synthesize_s + self.build_s


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB


def run_replay(workload, seed: int, traced: bool) -> Replay:
    from checks import (check_conservation, check_stamps, digest,
                        tail_attribution)
    from layers import instrument, layer_metrics, systems_of

    start = _perf()
    inputs = workload.synthesize(seed)
    synthesized = _perf()
    system = workload.build(seed, inputs)
    built = _perf()
    requests = inputs.requests
    clock = instrument(system) if traced else None
    last_arrival = max(r.arrival_time for r in requests)
    marks: list[float] = []

    def mark() -> None:
        marks.append(_perf())

    for k in range(1, SLICES):
        system.sim.schedule_at(last_arrival * k / SLICES, mark)
    gc.collect()
    begin = _perf()
    system.run_trace(requests)
    replayed = _perf()
    summary = system.summary()
    summarized = _perf()
    bounds = [begin, *marks, replayed]
    slices = [b - a for a, b in zip(bounds, bounds[1:])]
    # The markers are the benchmark's events, not the program's.
    events = system.sim.processed_events - len(marks)

    outcomes = check_conservation(requests, system.all_requests())
    check_stamps(requests)
    generated = len(requests)
    finished = [r for r in requests if r.finished]
    shards = systems_of(system)
    engines = [rep.engine for shard in shards for rep in shard.replicas]
    managers = [rep.adapter_manager.stats for shard in shards
                for rep in shard.replicas]
    counters = (
        events,
        tuple(sorted(outcomes.items())),
        sum(e.stats.iterations for e in engines),
        sum(e.stats.squashes for e in engines),
        sum(e.stats.admissions for e in engines),
        sum(m.hits for m in managers), sum(m.misses for m in managers),
        sum(m.evictions for m in managers),
        tuple(s.cluster.stats.queued for s in shards),
    )
    sim = {
        "sim_ttft_p50_s": summary.p50_ttft,
        "sim_ttft_p99_s": summary.p99_ttft,
        "sim_tbt_p99_s": summary.p99_tbt,
        "sim_ttft_samples": summary.n_requests,
        "sim_slo_attainment": sum(
            1 for r in finished if inputs.attained(r)) / generated,
        "sim_completed_fraction": len(finished) / generated,
        "failed_fraction": (generated - len(finished)) / generated,
        "sim_requests": generated,
        "sim_shed": outcomes["shed"],
    }
    sim.update(tail_attribution(requests))
    layers = {}
    if traced:
        layers = layer_metrics(system, clock, replayed - begin)
        layers["sim.events"] = events
        layers["metrics.summary_s"] = summarized - replayed
    return Replay(
        synthesize_s=synthesized - start, build_s=built - synthesized,
        replay_s=replayed - begin, summary_s=summarized - replayed,
        generated=generated, finished=len(finished),
        output_tokens=sum(r.output_tokens for r in finished),
        events=events, digest=digest(requests), slices=slices,
        counters=counters, sim=sim, layers=layers, traced=traced)


def _spread(values) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def _load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _check_digest(name: str, seed: int, value: str) -> str:
    expected = _load_digests()["digests"].get(name, {}).get(str(seed))
    if expected is None:
        return "not recorded for this seed"
    if expected != value:
        from checks import CheckFailed
        raise CheckFailed(
            f"digest {value} differs from the one recorded for {name} "
            f"seed {seed} ({expected}): the simulated results changed")
    return "matches the recorded digest"


def _record_digest(name: str, seed: int, value: str) -> None:
    data = _load_digests()
    data["digests"].setdefault(name, {})[str(seed)] = value
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(workload, seed: int, seconds: float,
            trace: bool) -> tuple[list[Replay], int]:
    """Replays until ``seconds`` are used (never fewer than the minimums).

    A replay starts only if the slowest one so far would still end within
    ``seconds``.  With ``trace`` the first replay is untraced (the overhead
    reference) and every later one is traced.  Also returns the peak RSS,
    in bytes, right after the first replay, which ran in a fresh process.
    """
    from checks import CheckFailed

    replays: list[Replay] = []
    start = _perf()
    slowest = 0.0
    while True:
        begun = _perf()
        traced = trace and bool(replays)
        replays.append(run_replay(workload, seed, traced))
        slowest = max(slowest, _perf() - begun)
        if len(replays) == 1:
            first_peak = _peak_rss_bytes()
        first = replays[0]
        latest = replays[-1]
        if (latest.digest, latest.counters) != (first.digest, first.counters):
            raise CheckFailed(
                f"nondeterminism: replay {len(replays)} of the same seed "
                f"produced different results or counts than replay 1")
        n_traced = sum(r.traced for r in replays)
        enough = (n_traced >= MIN_TRACED if trace
                  else len(replays) >= MIN_REPLAYS)
        if enough and _perf() - start + slowest > seconds:
            return replays, first_peak


def end_to_end(replays: list[Replay],
               rss_per_request: float) -> tuple[dict, dict]:
    """End-to-end metrics: the reported value of each, and the per-replay
    values behind the printed median and spread."""
    first = replays[0]
    replay_s = sum(min(times) for times in zip(*(r.slices for r in replays)))
    window = replay_s + min(r.summary_s for r in replays)
    per_replay = {
        "requests_per_s": [
            r.finished / (r.replay_s + r.summary_s) for r in replays],
        "output_tokens_per_s": [
            r.output_tokens / (r.replay_s + r.summary_s) for r in replays],
        "events_per_s": [r.events / r.replay_s for r in replays],
        "setup_s": [r.setup_s for r in replays],
    }
    reported = {
        "requests_per_s": first.finished / window,
        "output_tokens_per_s": first.output_tokens / window,
        "events_per_s": first.events / replay_s,
        "setup_s": min(per_replay["setup_s"]),
        "peak_rss_bytes_per_request": rss_per_request,
        **first.sim,
    }
    return reported, per_replay


def per_layer(replays: list[Replay]) -> dict:
    """Per-layer metrics, one value per traced replay (counts must repeat);
    the reported value is their median."""
    from checks import CheckFailed

    traced = [r for r in replays if r.traced]
    untraced = [r for r in replays if not r.traced]
    out: dict[str, list] = {}
    for name in traced[0].layers:
        values = [r.layers[name] for r in traced]
        # Times end in _us, .pct or _s; everything else is a count or a
        # ratio of counts and must repeat exactly.
        if not name.endswith(("_us", ".pct", "_s")) and len(set(values)) > 1:
            raise CheckFailed(
                f"nondeterminism: per-layer count {name} differs between "
                f"traced replays of the same seed: {values}")
        out[name] = values
    out["workload.synthesize_s"] = [r.synthesize_s for r in replays]
    out["workload.build_s"] = [r.build_s for r in replays]
    out["trace.replay_s"] = [r.replay_s for r in traced]
    out["trace.untraced_replay_s"] = [r.replay_s for r in untraced]
    out["trace.overhead_ratio"] = [
        statistics.median([r.replay_s for r in traced])
        / statistics.median([r.replay_s for r in untraced])]
    for name, value in traced[0].sim.items():
        out[name] = [value]
    return out


def _spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def run_one(args) -> int:
    from checks import CheckFailed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.record_digest:
        value = run_replay(workload, args.seed, traced=False).digest
        _record_digest(workload.name, args.seed, value)
        print(f"recorded {workload.name} seed {args.seed}: {value}")
        return 0
    # Memory only grows while importing, so the peak so far is the RSS
    # before set-up.
    rss_before = _peak_rss_bytes()
    try:
        replays, peak = measure(workload, args.seed, args.seconds,
                                bool(args.trace))
        digest_note = _check_digest(workload.name, args.seed,
                                    replays[0].digest)
        if args.trace:
            per_replay = per_layer(replays)
            reported = {name: statistics.median(values)
                        for name, values in per_replay.items()}
            section = "per_layer"
        else:
            reported, per_replay = end_to_end(
                replays, (peak - rss_before) / replays[0].generated)
            section = "end_to_end"
    except CheckFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: check failed: "
              f"{exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in _spec()[section]}
    missing = set(units) - set(reported)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")

    import numpy

    first = replays[0]
    print(f"workload {workload.name}: {workload.description}")
    print(f"context: seed={args.seed} held_out_seed="
          f"{_load_digests()['held_out_seed']} replays={len(replays)} "
          f"seconds={args.seconds:g} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"output check: {first.generated} requests conserved "
          f"({first.finished} finished, {first.sim['sim_shed']} shed), "
          f"stamps monotone, digest {first.digest[:16]} {digest_note}")
    print(f"simulated: ttft p50 {first.sim['sim_ttft_p50_s']:.4f} s, "
          f"p99 {first.sim['sim_ttft_p99_s']:.4f} s over "
          f"{first.sim['sim_ttft_samples']} requests; tbt p99 "
          f"{first.sim['sim_tbt_p99_s']:.4f} s; slo attainment "
          f"{first.sim['sim_slo_attainment']:.4f}; failed fraction "
          f"{first.sim['failed_fraction']:.4f}")
    print(f"{'metric':40s} {'value':>14s} {'unit':14s} {'median':>14s} "
          f"spread(IQR/median)")
    metrics = {}
    for name, unit in units.items():
        value = reported[name]
        values = per_replay.get(name, [value])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:14.6g} {unit:14s} "
              f"{statistics.median(values):14.6g} {_spread(values):.4f}")
    print(json.dumps({"correct": True, "attempted": len(replays),
                      "failed": 0, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process (fresh-process memory)."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT)
        status = status or done.returncode
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="replay once and store this seed's output "
                             "digest as the reference")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
