"""Tests for the request lifecycle record."""

import pytest

from repro.workload.request import Request, RequestState

from engine_oracle import token_gaps


def _req(**kw):
    defaults = dict(request_id=0, arrival_time=0.0, input_tokens=100, output_tokens=10)
    defaults.update(kw)
    return Request(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        _req(input_tokens=0)
    with pytest.raises(ValueError):
        _req(output_tokens=0)


def test_initial_state():
    r = _req()
    assert r.state is RequestState.CREATED
    assert not r.finished


def test_context_tokens_track_generation():
    r = _req()
    assert r.context_tokens == 100
    r.tokens_generated = 4
    assert r.context_tokens == 104


def test_remaining_prefill():
    r = _req()
    assert r.remaining_prefill_tokens == 100
    r.prefill_done_tokens = 60
    assert r.remaining_prefill_tokens == 40


def test_ttft_and_e2e():
    r = _req(arrival_time=1.0)
    r.first_token_time = 1.5
    r.finish_time = 3.0
    r.state = RequestState.FINISHED
    assert r.ttft == pytest.approx(0.5)
    assert r.e2e_latency == pytest.approx(2.0)


def test_ttft_before_first_token_raises():
    with pytest.raises(RuntimeError):
        _req().ttft
    with pytest.raises(RuntimeError):
        _req().e2e_latency


def test_queueing_delay():
    r = _req()
    r.enqueue_time = 2.0
    r.admit_time = 2.7
    assert r.queueing_delay == pytest.approx(0.7)
    r2 = _req()
    with pytest.raises(RuntimeError):
        r2.queueing_delay


def test_token_gaps():
    r = _req()
    r.token_times = [1.0, 1.1, 1.35]
    gaps = token_gaps(r)
    assert gaps == [pytest.approx(0.1), pytest.approx(0.25)]
    assert token_gaps(_req()) == []
