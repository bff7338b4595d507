"""Golden digests of synthesized traces and of the paper's SLO.

perfbench's digests cover only its two default workloads, and only what the
simulator made of them.  This gate hashes the traces themselves, for a small
matrix of generator settings: each request's ``(request_id,
arrival_time.hex(), input_tokens, output_tokens, adapter_id, tenant_id,
slo_class)`` in trace order, then the next double of every stream the trace
drew from, so a change to any value or to how far a stream was advanced
moves a digest.  The SLO pins hold ``trace_slo(...).hex()``.

The constants were recorded before trace set-up was rewritten to draw one
array per column; an intended change to them is a re-baseline and needs a
CHANGES.md line.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.experiments.common import trace_slo
from repro.hardware.gpu import A100_80GB, A40_48GB
from repro.llm.model import LLAMA_7B, LLAMA_13B
from repro.sim.rng import RngStreams
from repro.workload.tenants import TenantPopulation, inject_hot_tenant_storm
from repro.workload.trace import (
    LMSYS_PROFILE,
    SPLITWISE_PROFILE,
    WILDCHAT_PROFILE,
    Trace,
    synthesize_trace,
)

SEED = 5
RPS = 10.0
DURATION = 120.0


def trace_digest(requests, *streams) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(repr((r.request_id, r.arrival_time.hex(), r.input_tokens,
                       r.output_tokens, r.adapter_id, r.tenant_id,
                       r.slo_class)).encode() + b"\n")
    for rng in streams:
        h.update(f"next={rng.random().hex()}\n".encode())
    return h.hexdigest()


def _synthesized(n_adapters=100, profile=SPLITWISE_PROFILE, **kwargs):
    rng = RngStreams(SEED).get("trace")
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters)
    trace = synthesize_trace(profile, rps=RPS, duration=DURATION, rng=rng,
                             registry=registry, **kwargs)
    return trace.requests, rng


def _tenants():
    streams = RngStreams(SEED)
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    population = TenantPopulation.build(3, skew=1.2, phase_cycle=120.0)
    base = population.synthesize(rps=RPS, duration=DURATION,
                                 rng=streams.get("trace"), registry=registry)
    trace = inject_hot_tenant_storm(
        base, population, 0, storm_rps=2.0 * RPS, start=40.0,
        storm_duration=20.0, rng=streams.get("storm"), registry=registry)
    return trace.requests, streams.get("trace"), streams.get("storm")


def _labelled():
    requests, rng = _synthesized()
    tenants = RngStreams(SEED).get("tenants")
    Trace(requests=requests, profile=SPLITWISE_PROFILE, rps=RPS,
          duration=DURATION).label_tenants(4, tenants, skew=1.2)
    return requests, rng, tenants


CASES = {
    "splitwise": lambda: _synthesized(),
    "wildchat": lambda: _synthesized(profile=WILDCHAT_PROFILE),
    "lmsys": lambda: _synthesized(profile=LMSYS_PROFILE),
    "uniform-ranks-uniform-adapters": lambda: _synthesized(
        rank_popularity="uniform", adapter_popularity="uniform"),
    "powerlaw-ranks-powerlaw-adapters": lambda: _synthesized(
        rank_popularity="powerlaw", adapter_popularity="powerlaw"),
    "powerlaw-alpha-2": lambda: _synthesized(
        rank_popularity="powerlaw", powerlaw_alpha=2.0),
    "burst-shape-and-phase": lambda: _synthesized(
        burst_factor=5.0, burst_fraction=0.25, burst_cycle=40.0,
        burst_phase=17.25),
    "seven-adapters": lambda: _synthesized(n_adapters=7),
    "tenants-with-phases-and-storm": _tenants,
    "label-tenants": _labelled,
}

DIGESTS = {
    "splitwise": (
        "f1b46d0075364b8ea74b2c0c8e534f8b2bedb4771436c4df1f3cef5fd0eaa37b"),
    "wildchat": (
        "08864c2aa30d37307f6b1c478e6dfbe20868be08a413591fec6a5bf9467baa83"),
    "lmsys": (
        "a54b780c61978b4d5f80cc31ac74090aa16e135342c204edef8c1d64bc4c0b41"),
    "uniform-ranks-uniform-adapters": (
        "36d60bf54d7625e7abf3466de51bcf9dc6b8ea1c560f55cd4b51b74d9109351b"),
    "powerlaw-ranks-powerlaw-adapters": (
        "068cea377970afddf1018dc2f34ea8429a04043883c1caef4145242f4b564bfd"),
    "powerlaw-alpha-2": (
        "647a9b567f4790d63d518ed17ea495d5a8146734e4784f3a5006a69d0c3a9163"),
    "burst-shape-and-phase": (
        "402bed8a10a47aa5c13dbc66c9c06077e746ff3768e54c68e902afab6b84e7f1"),
    "seven-adapters": (
        "f4ba8d3a1747ca6a69e7f1d2d3a2d39d2a0227d6baa4a79a9398952e2312a641"),
    "tenants-with-phases-and-storm": (
        "fe42109a9a3c5572186bc7848cc5f6807abe80c45c0afb0e2765244dd62d7780"),
    "label-tenants": (
        "53afbffd7659110eda3d39a6a726995e6a7bbcfceab8115b0febd2885e567abe"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest(case):
    requests, *streams = CASES[case]()
    assert len(requests) > 500
    assert trace_digest(requests, *streams) == DIGESTS[case]


def _slo_7b_a40():
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=RPS, duration=DURATION,
                             rng=RngStreams(SEED).get("trace"),
                             registry=registry)
    return trace_slo(trace, registry, model=LLAMA_7B, gpu=A40_48GB)


def _slo_13b_a100():
    registry = AdapterRegistry.build(LLAMA_13B, 100)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=RPS, duration=DURATION,
                             rng=RngStreams(SEED).get("trace"),
                             registry=registry)
    return trace_slo(trace, registry, model=LLAMA_13B, gpu=A100_80GB)


SLO_CASES = {"llama-7b-a40": _slo_7b_a40, "llama-13b-a100": _slo_13b_a100}

SLOS = {
    "llama-7b-a40": "0x1.5e8092524261ep+2",
    "llama-13b-a100": "0x1.e7c67189657c6p+1",
}


@pytest.mark.parametrize("case", sorted(SLO_CASES))
def test_trace_slo(case):
    assert SLO_CASES[case]().hex() == SLOS[case]
