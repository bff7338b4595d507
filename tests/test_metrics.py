"""Tests for latency summaries, slowdown, SLO and throughput search."""

import math
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.gpu import A40_48GB
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B
from repro.metrics.summary import (
    compute_slo,
    jain_fairness_index,
    percentile,
    slowdowns,
    summarize_run,
    tbt_percentile,
    tenant_breakdown,
    throughput_under_slo,
    weighted_percentile,
    windowed_p99_ttft,
)
from repro.workload.request import Request, RequestState, StepView


def _finished(rid, arrival, ttft, e2e, tokens=(0.0,)):
    r = Request(request_id=rid, arrival_time=arrival, input_tokens=10, output_tokens=5)
    r.enqueue_time = arrival
    r.admit_time = arrival + 0.01
    r.first_token_time = arrival + ttft
    r.finish_time = arrival + e2e
    r.token_times = [arrival + t for t in tokens]
    r.state = RequestState.FINISHED
    return r


def test_percentile_basics():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert math.isnan(percentile([], 99))


def test_summarize_run_counts_and_percentiles():
    reqs = [_finished(i, float(i), ttft=0.1 * (i + 1), e2e=1.0) for i in range(10)]
    s = summarize_run(reqs, duration=10.0)
    assert s.n_requests == 10
    assert s.p50_ttft == pytest.approx(percentile([0.1 * (i + 1) for i in range(10)], 50))
    assert s.completed_rps == pytest.approx(1.0)


def test_summarize_run_warmup_excludes_early():
    reqs = [_finished(i, float(i), ttft=1.0, e2e=2.0) for i in range(10)]
    s = summarize_run(reqs, warmup=5.0)
    assert s.n_requests == 5


def test_summarize_run_ignores_unfinished():
    done = _finished(0, 0.0, 0.2, 1.0)
    pending = Request(request_id=1, arrival_time=0.0, input_tokens=5, output_tokens=5)
    s = summarize_run([done, pending])
    assert s.n_requests == 1


def test_summarize_empty():
    s = summarize_run([])
    assert s.n_requests == 0
    assert math.isnan(s.p99_ttft)


def test_slo_attainment():
    reqs = [_finished(i, 0.0, ttft=t, e2e=1.0) for i, t in enumerate([0.1, 0.2, 5.0, 0.3])]
    s = summarize_run(reqs, slo_ttft=1.0)
    assert s.slo_attainment == pytest.approx(0.75)
    assert s.meets_slo() is False


def test_tbt_from_token_gaps():
    reqs = [_finished(0, 0.0, 0.1, 1.0, tokens=[0.1, 0.2, 0.5])]
    s = summarize_run(reqs)
    assert s.p99_tbt == pytest.approx(np.percentile([0.1, 0.3], 99))


def test_tbt_skips_requests_without_tokens():
    """A finished request with no token times adds no gap, also when it is
    the last one (the concatenate-and-mask code indexed past its mask)."""
    reqs = [_finished(0, 0.0, 0.1, 1.0, tokens=[0.1, 0.2]),
            _finished(1, 0.0, 0.1, 1.0, tokens=[])]
    assert summarize_run(reqs).p99_tbt == pytest.approx(0.1)


def _concatenate_and_mask_tbt(requests, q):
    """The TBT percentile as ``summarize_run`` once computed it, kept as
    the oracle: concatenate every request's token times, take adjacent
    differences and mask out those that cross from one request to the
    next.  One fix: a boundary past the last difference (trailing requests
    with no tokens) is dropped instead of indexing out of range."""
    n = len(requests)
    lengths = np.fromiter(
        (len(r.token_times) for r in requests), dtype=np.intp, count=n)
    token_times = np.fromiter(
        chain.from_iterable(r.token_times for r in requests), dtype=float,
        count=int(lengths.sum()),
    )
    diffs = token_times[1:] - token_times[:-1]
    keep = np.ones(diffs.size, dtype=bool)
    if n > 1 and diffs.size:
        boundaries = np.cumsum(lengths)[:-1] - 1
        keep[boundaries[(boundaries >= 0) & (boundaries < diffs.size)]] = False
    return percentile(diffs[keep], q)


def _same(value, expected):
    assert value == expected or (math.isnan(value) and math.isnan(expected))


# Gaps from a small set repeat exactly; the float draws do not.
_GAPS = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 0.1, 0.3]),
                  st.floats(1e-3, 2.0))


def _times(draw, max_gaps):
    return list(accumulate(draw(st.lists(_GAPS, max_size=max_gaps)),
                           initial=draw(st.floats(0.0, 5.0))))


@st.composite
def _shared_timelines(draw):
    """Finished requests whose token times are views of shared step lists,
    copies of runs of them, or lists of their own, with 0, 1 or more
    tokens each."""
    step_lists = [_times(draw, 12) for _ in range(draw(st.integers(1, 3)))]
    requests = []
    for rid in range(draw(st.integers(0, 12))):
        steps = draw(st.sampled_from(step_lists))
        start = draw(st.integers(0, len(steps)))
        stop = draw(st.integers(start, min(len(steps), start + 6)))
        kind = draw(st.sampled_from(["view", "copy", "own"]))
        r = _finished(rid, draw(st.floats(0.0, 10.0)), ttft=0.1, e2e=1.0)
        if kind == "view":
            r.token_times = StepView(steps, start, stop)
        elif kind == "copy":
            r.token_times = steps[start:stop]
        else:
            r.token_times = _times(draw, 5)[:draw(st.integers(0, 6))]
        requests.append(r)
    return requests


@settings(max_examples=400, deadline=None)
@given(requests=_shared_timelines(), warmup=st.floats(0.0, 10.0),
       q=st.sampled_from([0, 50, 99, 100]))
def test_tbt_percentile_matches_the_concatenate_and_mask_oracle(
        requests, warmup, q):
    done = [r for r in requests if r.arrival_time >= warmup]
    _same(tbt_percentile(done, q), _concatenate_and_mask_tbt(done, q))
    _same(summarize_run(requests, warmup=warmup).p99_tbt,
          _concatenate_and_mask_tbt(done, 99))


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_GAPS, min_size=1, max_size=20), data=st.data(),
       q=st.floats(0.0, 100.0))
def test_weighted_percentile_is_numpy_over_the_repeated_values(
        values, data, q):
    counts = data.draw(st.lists(st.integers(1, 5), min_size=len(values),
                                max_size=len(values)))
    expected = np.percentile(np.repeat(values, counts), q)
    assert weighted_percentile(np.array(values), np.array(counts), q) \
        == expected


def test_windowed_p99():
    reqs = [_finished(i, arrival=float(i), ttft=float(i + 1), e2e=2.0) for i in range(10)]
    series = windowed_p99_ttft(reqs, window=5.0, horizon=10.0)
    assert len(series) == 2
    (t1, p1), (t2, p2) = series
    assert t1 == 5.0 and t2 == 10.0
    assert p2 > p1


def test_windowed_p99_drops_arrivals_past_the_horizon():
    """The binning contract of the windowed series: an arrival after the
    horizon is outside the series, and one exactly at the horizon belongs
    to the last window."""
    reqs = [_finished(i, arrival=float(i), ttft=1.0, e2e=2.0) for i in range(10)]
    base = windowed_p99_ttft(reqs, window=5.0, horizon=10.0)
    late = _finished(10, arrival=12.0, ttft=50.0, e2e=60.0)
    assert windowed_p99_ttft(reqs + [late], window=5.0, horizon=10.0) == base
    edge = _finished(11, arrival=10.0, ttft=50.0, e2e=60.0)
    (_, p1), (t2, p2) = windowed_p99_ttft(reqs + [edge], window=5.0,
                                          horizon=10.0)
    assert p1 == base[0][1] and t2 == 10.0 and p2 > base[1][1]


def test_slowdowns_relative_to_isolated():
    cm = CostModel(LLAMA_7B, A40_48GB)
    iso = cm.isolated_request_time(10, 5)
    r = _finished(0, 0.0, 0.1, e2e=3 * iso)
    values = slowdowns([r], cm, rank_of=lambda r: None, load_time_of=lambda r: 0.0)
    assert values[0] == pytest.approx(3.0, rel=1e-6)


def test_compute_slo_is_multiple_of_mean_isolated():
    cm = CostModel(LLAMA_7B, A40_48GB)
    reqs = [Request(request_id=i, arrival_time=0.0, input_tokens=100, output_tokens=10)
            for i in range(5)]
    slo = compute_slo(reqs, cm, rank_of=lambda r: None, load_time_of=lambda r: 0.0,
                      multiplier=5.0)
    iso = cm.isolated_request_time(100, 10)
    assert slo == pytest.approx(5.0 * iso)


def test_compute_slo_empty_raises():
    cm = CostModel(LLAMA_7B, A40_48GB)
    with pytest.raises(ValueError):
        compute_slo([], cm, rank_of=lambda r: None, load_time_of=lambda r: 0.0)


def test_throughput_under_slo_interpolates():
    loads = [5.0, 6.0, 7.0, 8.0]
    p99 = [1.0, 2.0, 4.0, 8.0]
    # SLO of 3.0 crossed between 6 (2.0) and 7 (4.0): midpoint 6.5.
    assert throughput_under_slo(loads, p99, slo=3.0) == pytest.approx(6.5)


def test_throughput_under_slo_never_violated():
    assert throughput_under_slo([5, 6], [1.0, 1.5], slo=10.0) == 6


def test_throughput_under_slo_always_violated():
    assert throughput_under_slo([5, 6], [20.0, 30.0], slo=10.0) == 0.0


def test_throughput_under_slo_handles_nan():
    # The NaN point is skipped: interpolate between (5, 1.0) and (7, 20.0).
    assert throughput_under_slo([5, 6, 7], [1.0, float("nan"), 20.0], slo=10.0) == pytest.approx(
        5.0 + 2.0 * (10.0 - 1.0) / 19.0
    )


def test_throughput_under_slo_validates():
    with pytest.raises(ValueError):
        throughput_under_slo([], [], slo=1.0)
    with pytest.raises(ValueError):
        throughput_under_slo([1.0], [1.0, 2.0], slo=1.0)


def test_jain_fairness_hand_computed():
    assert jain_fairness_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
    # One member holds everything: (1)^2 / (4 * 1) = 1/n.
    assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    # (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
    assert jain_fairness_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0)
    assert jain_fairness_index([0.0, 0.0]) == pytest.approx(1.0)
    assert math.isnan(jain_fairness_index([]))
    with pytest.raises(ValueError):
        jain_fairness_index([1.0, -0.5])


def _tenant_req(rid, tenant, arrival=0.0, ttft=0.1, done=True,
                shed=False, lost=False):
    if done:
        r = _finished(rid, arrival, ttft, e2e=1.0)
    else:
        r = Request(request_id=rid, arrival_time=arrival,
                    input_tokens=10, output_tokens=5)
        r.shed = shed
        r.lost = lost
    r.tenant_id = tenant
    return r


def test_tenant_breakdown_hand_computed():
    reqs = [
        _tenant_req(0, tenant=0),                      # done
        _tenant_req(1, tenant=0),                      # done
        _tenant_req(2, tenant=0, done=False, shed=True),
        _tenant_req(3, tenant=1),                      # done
        _tenant_req(4, tenant=1, done=False, lost=True),
        _tenant_req(5, tenant=None),                   # anonymous, done
    ]
    out = tenant_breakdown(reqs)
    assert out["tenant_ids"] == [0, 1, None]  # None sorts last
    assert out["arrivals"] == [3, 2, 1]
    assert out["completed"] == [2, 1, 1]
    assert out["shed"] == [1, 0, 0]
    assert out["lost"] == [0, 1, 0]
    # No predicate: attainment is the plain completion ratio.
    assert out["attainment"] == pytest.approx([2 / 3, 1 / 2, 1.0])


def test_tenant_breakdown_attained_predicate_counts_unfinished_against():
    reqs = [
        _tenant_req(0, tenant=0, ttft=0.1),            # within deadline
        _tenant_req(1, tenant=0, ttft=5.0),            # finished but late
        _tenant_req(2, tenant=0, done=False, shed=True),
    ]
    out = tenant_breakdown(reqs, attained=lambda r: r.ttft <= 1.0)
    # 1 attained of 3 arrivals: late and shed both count against.
    assert out["attainment"] == pytest.approx([1 / 3])


def test_tenant_breakdown_warmup_and_empty():
    reqs = [
        _tenant_req(0, tenant=0, arrival=1.0),
        _tenant_req(1, tenant=1, arrival=10.0),
    ]
    out = tenant_breakdown(reqs, warmup=5.0)
    assert out["tenant_ids"] == [1]
    assert out["arrivals"] == [1]
    empty = tenant_breakdown([])
    assert empty["tenant_ids"] == [] and empty["arrivals"] == []
