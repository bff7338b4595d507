"""Deterministic work gate: calls into ``src/repro`` per simulated request.

The simulator's work repeats exactly from replay to replay, so the number
of Python calls it makes is a measure of cost that does not depend on how
fast or busy the machine is.  For each perfbench workload (built with
``perfbench/workloads.py`` at seed 1), this runs one ``run_trace`` plus
``summary()`` under cProfile and counts the calls into functions defined
under ``src/repro``: named functions, methods and lambdas.  Comprehension
and generator-expression frames are left out, because Python 3.12 inlines
comprehensions (PEP 709) and their counts would differ between versions.
Set-up (trace synthesis, system build) is not counted.

Counts are reported per request, in total and per layer; a layer is a set
of modules (see ``LAYERS``).  ``BENCH_work.json`` (committed) holds the
record.

    python benchmarks/bench_work.py            # measure, rewrite the record
    python benchmarks/bench_work.py --check    # exit 1 if any count rose

``--check`` compares without writing: it fails when a workload's total or
any layer's call count is above the record.  Lowering the record is a
committed update.  cProfile counts calls, not time: numpy work (such as
the MLQ's K-means refresh) costs wall time at almost no calls, so size
wall-time work with a sampling profiler.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro") + os.sep
RECORD = os.path.join(ROOT, "BENCH_work.json")
SEED = 1

sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np

from workloads import WORKLOADS

#: Layer of each module, by path under ``src/repro`` (a directory entry
#: covers the whole package).  Modules not listed count as ``other``.
LAYERS = {
    "sim": ("sim/",),
    "dispatcher": ("hardware/cluster.py", "hardware/dispatch_index.py",
                   "serving/replica.py", "serving/region.py",
                   "serving/admission.py", "serving/autoscaler.py",
                   "faults/"),
    "engine": ("serving/engine.py", "serving/schedulers.py",
               "hardware/gpu.py", "workload/request.py"),
    "mlq": ("core/mlq.py", "core/clustering.py", "core/quotas.py",
            "core/wrs.py"),
    "cache": ("serving/adapter_manager.py", "core/cache.py",
              "core/eviction.py", "hardware/pcie.py"),
    "costmodel": ("llm/costmodel.py",),
    "predictor": ("predictor/",),
    "metrics": ("metrics/",),
}


def layer_of(relpath: str) -> str:
    for layer, prefixes in LAYERS.items():
        if relpath.startswith(prefixes):
            return layer
    return "other"


def counted(filename: str, funcname: str) -> bool:
    """A frame of a named function or lambda defined in ``src/repro``."""
    if not filename.startswith(PACKAGE):
        return False
    return funcname == "<lambda>" or not funcname.startswith("<")


def measure(name: str) -> dict:
    """Profile one replay of workload ``name`` and count its calls."""
    workload = WORKLOADS[name]
    inputs = workload.synthesize(SEED)
    system = workload.build(SEED, inputs)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run_trace(inputs.requests)
    system.summary()
    profiler.disable()
    n_requests = len(inputs.requests)
    layers = {layer: 0 for layer in (*LAYERS, "other")}
    functions: dict[str, int] = {}
    for (filename, line, funcname), row in pstats.Stats(profiler).stats.items():
        filename = os.path.abspath(filename)
        if not counted(filename, funcname):
            continue
        calls = row[1]  # every call, recursive ones included
        relpath = filename[len(PACKAGE):].replace(os.sep, "/")
        layers[layer_of(relpath)] += calls
        key = f"{relpath}:{line}({funcname})"
        functions[key] = functions.get(key, 0) + calls
    total = sum(layers.values())
    top = sorted(functions.items(), key=lambda item: (-item[1], item[0]))[:15]
    return {
        "requests": n_requests,
        "calls": total,
        "calls_per_request": round(total / n_requests, 2),
        "layers": {
            layer: {"calls": calls,
                    "calls_per_request": round(calls / n_requests, 2)}
            for layer, calls in layers.items()},
        "top_functions_per_request": {
            key: round(calls / n_requests, 2) for key, calls in top},
    }


def rises(record: dict, result: dict) -> list[str]:
    """Counts of ``result`` above those of ``record``."""
    found = []
    for name, now in result["workloads"].items():
        before = record["workloads"].get(name)
        if before is None:
            found.append(f"{name}: no record")
            continue
        if now["calls"] > before["calls"]:
            found.append(f"{name}: total {before['calls']:,} -> "
                         f"{now['calls']:,} calls")
        for layer, counts in now["layers"].items():
            was = before["layers"].get(layer, {"calls": 0})["calls"]
            if counts["calls"] > was:
                found.append(f"{name}: {layer} {was:,} -> "
                             f"{counts['calls']:,} calls")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the record instead of rewriting "
                             "it; exit 1 if any count rose")
    args = parser.parse_args(argv)
    result = {
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {name: measure(name) for name in WORKLOADS},
    }
    for name, counts in result["workloads"].items():
        layers = ", ".join(
            f"{layer} {c['calls_per_request']:.2f}"
            for layer, c in counts["layers"].items())
        print(f"{name}: {counts['calls_per_request']:.2f} calls/request "
              f"({counts['calls']:,} calls, {counts['requests']:,} requests)"
              f"; {layers}")
        for key, per_request in counts["top_functions_per_request"].items():
            print(f"    {per_request:6.2f}  {key}")
    if not args.check:
        with open(RECORD, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {RECORD}")
        return 0
    with open(RECORD) as fh:
        record = json.load(fh)
    found = rises(record, result)
    for line in found:
        print(f"FAIL: {line} (record from Python {record['python']})",
              file=sys.stderr)
    if not found:
        print("work gate: no count above the record")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
