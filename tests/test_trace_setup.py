"""Trace set-up draws one array per column: oracles and a work gate.

``assign_adapters`` draws one double per request in one call,
``bursty_arrival_times`` one double per candidate in one call, and
``CostModel.isolated_request_time`` sums its decode steps inline.  The
per-request, per-candidate and per-token loops they replaced are kept here
as oracles.  Each Hypothesis test requires exact equality with its oracle
and, for the RNG users, an equal next draw from both generators afterwards,
so the stream is left where the loop left it.

The work gate counts top-level calls on the trace's Generator: a per-request
draw reintroduced anywhere in synthesis fails it on any machine, however
slow or fast.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.experiments.common import trace_slo
from repro.hardware.gpu import A100_80GB, A40_48GB
from repro.llm.costmodel import CostModel, CostModelParams
from repro.llm.model import LLAMA_7B, LLAMA_13B, LLAMA_70B, ModelSpec
from repro.sim.rng import RngStreams
from repro.workload.distributions import (
    bursty_arrival_times,
    poisson_arrival_times,
    zipf_weights,
)
from repro.workload.request import Request
from repro.workload.trace import (
    SPLITWISE_PROFILE,
    assign_adapters,
    synthesize_trace,
)


def _twins(seed: int):
    return RngStreams(seed).get("trace"), RngStreams(seed).get("trace")


class ScriptedGenerator(np.random.Generator):
    """A Generator whose uniform doubles and exponential gaps are scripted.

    ``Generator.choice`` draws its doubles through ``self.random``, so the
    script reaches the per-request loop's ``rng.choice`` calls too.  This
    puts doubles exactly on the boundaries of the cumulative weights and of
    the burst windows, where a random stream almost never lands.
    """

    def __init__(self, doubles, gap: float = 1.0) -> None:
        super().__init__(np.random.PCG64(0))
        self.doubles = list(doubles)
        self.gap = gap

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None or size == ():
            return self.doubles.pop(0)
        n = int(np.prod(size))
        assert len(self.doubles) >= n
        drawn, self.doubles = self.doubles[:n], self.doubles[n:]
        return np.array(drawn)

    def exponential(self, scale=1.0, size=None):
        return np.full(size, self.gap)


# --------------------------------------------------------------------- #
# assign_adapters: one rng.choice per request
# --------------------------------------------------------------------- #
def assign_adapters_per_request(requests, registry, rng, rank_popularity,
                                adapter_popularity, powerlaw_alpha):
    ranks = registry.ranks
    if rank_popularity == "uniform":
        rank_w = np.full(len(ranks), 1.0 / len(ranks))
    else:
        rank_w = zipf_weights(len(ranks), powerlaw_alpha)
    per_rank_ids = {rank: registry.ids_by_rank(rank) for rank in ranks}
    per_rank_weights = {}
    for rank in ranks:
        ids = per_rank_ids[rank]
        if adapter_popularity == "uniform":
            per_rank_weights[rank] = np.full(len(ids), 1.0 / len(ids))
        else:
            per_rank_weights[rank] = zipf_weights(len(ids), powerlaw_alpha)
    rank_choices = rng.choice(len(ranks), size=len(requests), p=rank_w)
    for req, rank_idx in zip(requests, rank_choices):
        rank = ranks[rank_idx]
        ids = per_rank_ids[rank]
        weights = per_rank_weights[rank]
        req.adapter_id = int(ids[rng.choice(len(ids), p=weights)])


def _requests(n: int) -> list[Request]:
    return [Request(request_id=i, arrival_time=0.01 * i, input_tokens=1,
                    output_tokens=1) for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(n_adapters=st.sampled_from([1, 3, 5, 7, 100]),
       n_requests=st.sampled_from([0, 1]) | st.integers(2, 2000),
       rank_popularity=st.sampled_from(["uniform", "powerlaw"]),
       adapter_popularity=st.sampled_from(["uniform", "powerlaw"]),
       alpha=st.sampled_from([0.0, 1.0, 2.5]),
       seed=st.integers(0, 2**32 - 1))
def test_assign_adapters_matches_the_per_request_loop(
        n_adapters, n_requests, rank_popularity, adapter_popularity, alpha,
        seed):
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters)
    mine, oracle = _requests(n_requests), _requests(n_requests)
    rng, twin = _twins(seed)
    kwargs = dict(rank_popularity=rank_popularity,
                  adapter_popularity=adapter_popularity,
                  powerlaw_alpha=alpha)
    assign_adapters(mine, registry, rng, **kwargs)
    assign_adapters_per_request(oracle, registry, twin, **kwargs)
    assert [r.adapter_id for r in mine] == [r.adapter_id for r in oracle]
    assert all(type(r.adapter_id) is int for r in mine)
    assert rng.random() == twin.random()


def _inner_edges(weights: np.ndarray) -> list[float]:
    """The normalized cumulative weights below 1 (a double is < 1)."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf[:-1].tolist()


@pytest.mark.parametrize("n_adapters", [1, 7, 100])
@pytest.mark.parametrize("popularity", ["uniform", "powerlaw"])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_assign_adapters_on_cdf_boundaries(n_adapters, popularity, alpha):
    """Doubles exactly on a cumulative weight go to the next adapter, as in
    ``Generator.choice``; so do the smallest and largest doubles."""
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters)
    ranks = registry.ranks
    if popularity == "uniform":
        rank_w = np.full(len(ranks), 1.0 / len(ranks))
    else:
        rank_w = zipf_weights(len(ranks), alpha)
    edges = [0.0, float(np.nextafter(1.0, 0.0)), 0.5]
    for rank in ranks:
        n_ids = len(registry.ids_by_rank(rank))
        weights = (np.full(n_ids, 1.0 / n_ids) if popularity == "uniform"
                   else zipf_weights(n_ids, alpha))
        edges += _inner_edges(weights)
    adapter_doubles = edges * len(ranks)
    rank_edges = _inner_edges(rank_w) + edges
    rank_doubles = [rank_edges[i % len(rank_edges)]
                    for i in range(len(adapter_doubles))]
    script = rank_doubles + adapter_doubles
    n = len(adapter_doubles)
    mine, oracle = _requests(n), _requests(n)
    rng, twin = ScriptedGenerator(script), ScriptedGenerator(script)
    kwargs = dict(rank_popularity=popularity, adapter_popularity=popularity,
                  powerlaw_alpha=alpha)
    assign_adapters(mine, registry, rng, **kwargs)
    assign_adapters_per_request(oracle, registry, twin, **kwargs)
    assert not rng.doubles and not twin.doubles
    assert [r.adapter_id for r in mine] == [r.adapter_id for r in oracle]


# --------------------------------------------------------------------- #
# bursty_arrival_times: one rng.random() per candidate
# --------------------------------------------------------------------- #
def bursty_per_candidate(rng, rate, duration, burst_factor, burst_fraction,
                         cycle, phase):
    mean_multiplier = burst_fraction * burst_factor + (1.0 - burst_fraction)
    base_rate = rate / mean_multiplier
    peak_rate = base_rate * burst_factor
    candidates = poisson_arrival_times(rng, peak_rate, duration)
    keep = np.empty(candidates.size, dtype=bool)
    for i, t in enumerate(candidates):
        in_burst = ((t - phase) % cycle) < burst_fraction * cycle
        accept_p = 1.0 if in_burst else base_rate / peak_rate
        keep[i] = rng.random() < accept_p
    return candidates[keep]


_PHASES = (st.floats(-1000.0, 1000.0) | st.integers(-500, 500)
           | st.sampled_from([0.0, -0.0, -13.5, 60.0]))


@settings(max_examples=300, deadline=None)
@given(rate=st.floats(0.05, 20.0), duration=st.floats(0.5, 300.0),
       burst_factor=st.floats(1.0, 10.0) | st.sampled_from([1.0, 3.0]),
       burst_fraction=st.floats(0.0, 0.99) | st.sampled_from([0.0, 0.1]),
       cycle=st.floats(0.01, 500.0) | st.integers(1, 300)
       | st.sampled_from([120.0, 1e-3]),
       phase=_PHASES, seed=st.integers(0, 2**32 - 1))
def test_bursty_thinning_matches_the_per_candidate_loop(
        rate, duration, burst_factor, burst_fraction, cycle, phase, seed):
    rng, twin = _twins(seed)
    shape = dict(burst_factor=burst_factor, burst_fraction=burst_fraction,
                 cycle=cycle, phase=phase)
    mine = bursty_arrival_times(rng, rate, duration, **shape)
    oracle = bursty_per_candidate(twin, rate, duration, **shape)
    assert np.array_equal(mine, oracle)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("phase", [0.0, 1.0, -9.0, 0.5])
def test_bursty_thinning_on_window_and_acceptance_boundaries(phase):
    """Candidates every 0.5 s fall exactly on burst-window edges (cycle 10,
    window 1), and doubles fall exactly on the off-burst acceptance
    probability."""
    rate, duration, factor, fraction, cycle = 12.0, 40.0, 3.0, 0.1, 10.0
    base_rate = rate / (fraction * factor + (1.0 - fraction))
    accept = base_rate / (base_rate * factor)
    n_candidates = int(duration / 0.5) - 1
    doubles = [accept, 0.0, float(np.nextafter(accept, 0.0)),
               float(np.nextafter(1.0, 0.0)), 0.5]
    script = [doubles[i % len(doubles)] for i in range(n_candidates)]
    rng = ScriptedGenerator(script, gap=0.5)
    twin = ScriptedGenerator(script, gap=0.5)
    shape = dict(burst_factor=factor, burst_fraction=fraction, cycle=cycle,
                 phase=phase)
    mine = bursty_arrival_times(rng, rate, duration, **shape)
    oracle = bursty_per_candidate(twin, rate, duration, **shape)
    assert not rng.doubles and not twin.doubles
    assert 0 < mine.size < n_candidates
    assert np.array_equal(mine, oracle)


# --------------------------------------------------------------------- #
# isolated_request_time: one decode_step_time call per output token
# --------------------------------------------------------------------- #
def isolated_per_token(cm, input_tokens, output_tokens, rank=None,
                       adapter_load_time=0.0):
    t = adapter_load_time
    t += cm.params.iteration_overhead + cm.prefill_time(input_tokens, rank)
    context = input_tokens
    for _ in range(output_tokens - 1):
        context += 1
        t += cm.params.iteration_overhead + cm.decode_step_time(
            1, context,
            total_rank=rank or 0,
            n_lora_requests=1 if rank is not None else 0,
        )
    return t


_SECONDS = st.floats(0.0, 1e-3, allow_subnormal=False)


@st.composite
def _cost_models(draw):
    """Paper models with the default constants, or any geometry (a tiny
    one lets the LoRA terms dominate the sum) with drawn constants."""
    gpu = draw(st.sampled_from([A40_48GB, A100_80GB]))
    speedup = draw(st.sampled_from([1.0, 1.7, 3.4]) | st.floats(0.25, 8.0))
    if draw(st.booleans()):
        model = draw(st.sampled_from([LLAMA_7B, LLAMA_13B, LLAMA_70B]))
        return CostModel(model, gpu, compute_speedup=speedup)
    model = ModelSpec(name="drawn", n_params=draw(st.integers(1, 10**11)),
                      n_layers=draw(st.integers(1, 100)),
                      hidden_size=draw(st.integers(1, 16384)))
    params = CostModelParams(
        decode_per_request=draw(_SECONDS),
        lora_decode_fixed=draw(_SECONDS),
        lora_decode_per_rank=draw(_SECONDS),
        iteration_overhead=draw(_SECONDS),
        hbm_efficiency=draw(st.floats(0.1, 1.0)))
    return CostModel(model, gpu, params, compute_speedup=speedup)


@settings(max_examples=300, deadline=None)
@given(cm=_cost_models(), input_tokens=st.integers(1, 4096),
       output_tokens=st.sampled_from([1, 2]) | st.integers(1, 600),
       rank=st.none() | st.sampled_from([0, 8, 16, 32, 64, 128])
       | st.integers(1, 10_000),
       adapter_load_time=st.sampled_from([0.0]) | st.floats(0.0, 0.1))
def test_isolated_request_time_matches_the_per_token_loop(
        cm, input_tokens, output_tokens, rank, adapter_load_time):
    assert cm.isolated_request_time(
        input_tokens, output_tokens, rank, adapter_load_time) \
        == isolated_per_token(cm, input_tokens, output_tokens, rank,
                              adapter_load_time)


# --------------------------------------------------------------------- #
# Work gate
# --------------------------------------------------------------------- #
class CountingGenerator:
    """Forwards to a Generator and counts top-level calls of its methods."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.calls: Counter = Counter()

    def __getattr__(self, name: str):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


#: Top-level Generator calls one synthesis may make, whatever its size:
#: arrivals (one or more exponential blocks, one thinning draw), two length
#: columns, the rank draw and the adapter draw.
MAX_GENERATOR_CALLS = 8


@pytest.mark.parametrize("rps,duration,at_least", [
    (10.0, 60.0, 500), (40.0, 300.0, 10_000)])
def test_synthesis_makes_a_fixed_number_of_generator_calls(
        rps, duration, at_least):
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    assert SPLITWISE_PROFILE.bursty
    counting = CountingGenerator(RngStreams(1).get("trace"))
    trace = synthesize_trace(SPLITWISE_PROFILE, rps, duration, counting,
                             registry=registry)
    assert len(trace) >= at_least
    assert sum(counting.calls.values()) <= MAX_GENERATOR_CALLS, counting.calls
    # Counting changes nothing.
    plain = synthesize_trace(SPLITWISE_PROFILE, rps, duration,
                             RngStreams(1).get("trace"), registry=registry)
    assert [(r.arrival_time, r.input_tokens, r.output_tokens, r.adapter_id)
            for r in trace] == [
        (r.arrival_time, r.input_tokens, r.output_tokens, r.adapter_id)
        for r in plain]


def test_trace_slo_makes_no_per_token_calls(monkeypatch):
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    trace = synthesize_trace(SPLITWISE_PROFILE, 10.0, 120.0,
                             RngStreams(1).get("trace"), registry=registry)
    calls = Counter()
    decode_step_time = CostModel.decode_step_time

    def counted(self, *args, **kwargs):
        calls["decode_step_time"] += 1
        return decode_step_time(self, *args, **kwargs)
    monkeypatch.setattr(CostModel, "decode_step_time", counted)
    assert trace_slo(trace, registry) > 0
    assert sum(r.output_tokens for r in trace.requests[:512]) > 10_000
    assert calls["decode_step_time"] == 0
