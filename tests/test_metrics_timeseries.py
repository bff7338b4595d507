"""Window and horizon validation of the windowed time series."""

import pytest

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


_SERIES = {
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
