"""Tests for the windowed time-series metrics."""

import pytest

from repro.metrics.timeseries import (
    batch_occupancy_series,
    peak_concurrency,
    windowed_goodput,
    windowed_throughput,
)
from repro.metrics.summary import windowed_p99_ttft
from repro.workload.request import Request, RequestState


def _finished(rid, admit, finish, ttft=0.1):
    r = Request(request_id=rid, arrival_time=admit, input_tokens=10, output_tokens=2)
    r.enqueue_time = admit
    r.admit_time = admit
    r.first_token_time = admit + ttft
    r.finish_time = finish
    r.state = RequestState.FINISHED
    return r


def test_windowed_throughput_counts_completions():
    reqs = [_finished(i, 0.0, finish=float(i)) for i in range(1, 9)]
    series = windowed_throughput(reqs, window=4.0, horizon=8.0)
    assert len(series) == 2
    # Finishes at 1,2,3 land in bin 0; 4..8 (boundary included right) in bin 1.
    assert series[0].value == pytest.approx(3 / 4.0)
    assert series[1].value == pytest.approx(5 / 4.0)


def test_windowed_throughput_ignores_unfinished():
    pending = Request(request_id=0, arrival_time=0.0, input_tokens=5, output_tokens=5)
    series = windowed_throughput([pending], window=1.0, horizon=2.0)
    assert all(p.value == 0.0 for p in series)


def test_windowed_throughput_validates():
    with pytest.raises(ValueError):
        windowed_throughput([], window=0.0, horizon=1.0)


_SERIES = {
    "throughput": lambda reqs, w, h: windowed_throughput(reqs, w, h),
    "goodput": lambda reqs, w, h: windowed_goodput(reqs, w, h, slo_ttft=1.0),
    "occupancy": lambda reqs, w, h: batch_occupancy_series(
        [(r.admit_time, 3) for r in reqs], w, h),
    "p99_ttft": lambda reqs, w, h: windowed_p99_ttft(reqs, w, h),
}


@pytest.mark.parametrize("name", sorted(_SERIES))
@pytest.mark.parametrize("window, horizon", [
    (-5.0, 10.0), (0.0, 10.0), (5.0, 0.0), (5.0, -1.0)])
def test_every_series_rejects_a_nonpositive_window_or_horizon(
        name, window, horizon):
    """A negative window would wrap bin indices and a zero one would
    divide by zero; every series refuses both, with one message."""
    reqs = [_finished(i, float(i), float(i) + 0.5) for i in range(4)]
    with pytest.raises(ValueError, match="window and horizon must be positive"):
        _SERIES[name](reqs, window, horizon)


def test_goodput_excludes_slo_violations():
    good = _finished(0, 0.0, 1.0, ttft=0.1)
    bad = _finished(1, 0.0, 1.5, ttft=9.0)
    series = windowed_goodput([good, bad], window=2.0, horizon=2.0, slo_ttft=1.0)
    assert series[0].value == pytest.approx(0.5)   # 1 request / 2 s


def test_goodput_validates_slo():
    with pytest.raises(ValueError):
        windowed_goodput([], window=1.0, horizon=1.0, slo_ttft=0.0)


def test_batch_occupancy_series_means():
    samples = [(0.5, 4), (1.5, 8), (2.5, 6), (2.9, 10)]
    series = batch_occupancy_series(samples, window=2.0, horizon=4.0)
    assert series[0].value == pytest.approx(6.0)   # (4 + 8) / 2
    assert series[1].value == pytest.approx(8.0)   # (6 + 10) / 2


def test_batch_occupancy_empty_window_zero():
    series = batch_occupancy_series([], window=1.0, horizon=2.0)
    assert [p.value for p in series] == [0.0, 0.0]


def test_peak_concurrency_overlaps():
    reqs = [
        _finished(0, admit=0.0, finish=10.0),
        _finished(1, admit=1.0, finish=3.0),
        _finished(2, admit=2.0, finish=4.0),
        _finished(3, admit=5.0, finish=6.0),
    ]
    assert peak_concurrency(reqs) == 3


def test_peak_concurrency_empty():
    assert peak_concurrency([]) == 0


def test_engine_records_occupancy_when_enabled(big_registry, rng_streams):
    from repro.serving.engine import EngineConfig
    from repro.systems import build_system
    from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=10.0,
                             rng=rng_streams.get("trace"), registry=big_registry)
    system = build_system("slora", registry=big_registry,
                          engine_config=EngineConfig(record_batch_occupancy=True))
    system.run_trace(trace.fresh())
    assert len(system.engine.batch_occupancy) == system.engine.stats.iterations
    assert max(size for _, size in system.engine.batch_occupancy) >= 1


# --------------------------------------------------------------------- #
# Horizon handling: out-of-horizon points are dropped, the == horizon
# boundary stays in the last bin.  (Clamping time > horizon into the last
# bin used to inflate the final window.)
# --------------------------------------------------------------------- #
def test_windowed_throughput_drops_out_of_horizon_completions():
    reqs = [
        _finished(0, 0.0, finish=1.0),   # bin 0
        _finished(1, 0.0, finish=4.0),   # == horizon: stays in last bin
        _finished(2, 0.0, finish=4.5),   # past horizon: dropped
        _finished(3, 0.0, finish=9.0),   # far past horizon: dropped
    ]
    series = windowed_throughput(reqs, window=2.0, horizon=4.0)
    assert len(series) == 2
    assert series[0].value == pytest.approx(1 / 2.0)   # only finish=1.0
    assert series[1].value == pytest.approx(1 / 2.0)   # only finish=4.0


def test_windowed_goodput_drops_out_of_horizon_completions():
    reqs = [
        _finished(0, 0.0, finish=1.0, ttft=0.1),   # compliant, in horizon
        _finished(1, 0.0, finish=4.5, ttft=0.1),   # compliant but dropped
        _finished(2, 0.0, finish=1.5, ttft=9.0),   # in horizon, SLO-violating
    ]
    series = windowed_goodput(reqs, window=2.0, horizon=4.0, slo_ttft=1.0)
    assert series[0].value == pytest.approx(1 / 2.0)
    assert series[1].value == 0.0


def test_batch_occupancy_drops_out_of_horizon_samples():
    samples = [(1.0, 4), (4.0, 6), (5.0, 100)]
    series = batch_occupancy_series(samples, window=2.0, horizon=4.0)
    assert series[0].value == pytest.approx(4.0)
    # The boundary sample (4.0) lands in the last bin; 5.0 is dropped
    # instead of polluting it.
    assert series[1].value == pytest.approx(6.0)


# --------------------------------------------------------------------- #
# peak_concurrency tie-break: arrivals before departures at equal times,
# so a back-to-back hand-off counts as overlapping.  Sorting raw
# (time, ±1) tuples would process the -1 first and undercount.
# --------------------------------------------------------------------- #
def test_peak_concurrency_counts_handoff_instant():
    reqs = [
        _finished(0, admit=0.0, finish=1.0),
        _finished(1, admit=1.0, finish=2.0),
        _finished(2, admit=2.0, finish=3.0),
    ]
    assert peak_concurrency(reqs) == 2


def test_peak_concurrency_simultaneous_swap():
    # Two finish at t=2 exactly as two are admitted: all four overlap there.
    reqs = [
        _finished(0, admit=0.0, finish=2.0),
        _finished(1, admit=0.0, finish=2.0),
        _finished(2, admit=2.0, finish=3.0),
        _finished(3, admit=2.0, finish=3.0),
    ]
    assert peak_concurrency(reqs) == 4


def test_peak_concurrency_ignores_never_admitted():
    pending = Request(request_id=9, arrival_time=0.0, input_tokens=5, output_tokens=5)
    reqs = [pending, _finished(0, admit=0.0, finish=1.0)]
    assert peak_concurrency(reqs) == 1
