"""Tests for the output-length predictor and the load/arrival forecasters."""

import math

import numpy as np
import pytest

from repro.predictor.load_forecast import (
    ArrivalRateForecaster,
    HistogramLoadPredictor,
)
from repro.predictor.output_length import OutputLengthPredictor
from repro.sim.rng import RngStreams
from repro.workload.request import Request


def _req(output_tokens=100):
    return Request(request_id=0, arrival_time=0.0, input_tokens=10,
                   output_tokens=output_tokens)


@pytest.fixture
def rng():
    return RngStreams(3).get("predictor")


def test_oracle_accuracy_is_exact(rng):
    predictor = OutputLengthPredictor(rng, accuracy=1.0)
    assert all(predictor.predict(_req(n)) == n for n in (1, 10, 500))


def test_observed_accuracy_tracks_knob(rng):
    predictor = OutputLengthPredictor(rng, accuracy=0.8)
    for _ in range(4000):
        predictor.predict(_req(100))
    assert predictor.observed_accuracy == pytest.approx(0.8, abs=0.03)


def test_hits_stay_within_tolerance(rng):
    predictor = OutputLengthPredictor(rng, accuracy=1.0 - 1e-12)
    for _ in range(500):
        p = predictor.predict(_req(1000))
        assert 900 <= p <= 1100


def test_misses_leave_tolerance_band(rng):
    predictor = OutputLengthPredictor(rng, accuracy=0.0)
    misses = [predictor.predict(_req(1000)) for _ in range(500)]
    outside = [p for p in misses if abs(p - 1000) > 100]
    assert len(outside) == len(misses)


def test_prediction_floor_is_one(rng):
    predictor = OutputLengthPredictor(rng, accuracy=0.0)
    assert all(predictor.predict(_req(2)) >= 1 for _ in range(200))


def test_annotate_fills_request(rng):
    predictor = OutputLengthPredictor(rng, accuracy=1.0)
    request = _req(42)
    predictor.annotate(request)
    assert request.predicted_output_tokens == 42


def test_invalid_accuracy_rejected(rng):
    with pytest.raises(ValueError):
        OutputLengthPredictor(rng, accuracy=1.5)


def test_accuracy_nan_before_predictions(rng):
    assert np.isnan(OutputLengthPredictor(rng).observed_accuracy)


# --------------------------------------------------------------------- #
# HistogramLoadPredictor
# --------------------------------------------------------------------- #
def test_histogram_periodic_adapter_predicted():
    predictor = HistogramLoadPredictor()
    for t in range(0, 100, 10):
        predictor.record_use(adapter_id=1, now=float(t))
    # Last use at 90; next expected around 100.
    assert predictor.probability_within(1, now=95.0, horizon=6.0) > 0.9
    assert predictor.probability_within(1, now=91.0, horizon=2.0) < 0.5


def test_histogram_unknown_adapter_zero():
    predictor = HistogramLoadPredictor()
    assert predictor.probability_within(9, now=0.0, horizon=10.0) == 0.0
    predictor.record_use(9, 0.0)  # one use, no interval yet
    assert predictor.probability_within(9, now=1.0, horizon=10.0) == 0.0


def test_histogram_rank_candidates_order():
    predictor = HistogramLoadPredictor()
    for t in range(0, 100, 10):
        predictor.record_use(1, float(t))          # period 10
    for t in range(0, 100, 50):
        predictor.record_use(2, float(t))          # period 50
    ranked = predictor.rank_candidates(now=99.0, horizon=5.0, min_probability=0.05)
    assert ranked and ranked[0][0] == 1


def test_histogram_exclusion():
    predictor = HistogramLoadPredictor()
    for t in range(0, 100, 10):
        predictor.record_use(1, float(t))
    assert predictor.rank_candidates(now=99.0, horizon=5.0, exclude={1}) == []


def test_histogram_rejects_bad_bin_width():
    with pytest.raises(ValueError):
        HistogramLoadPredictor(bin_width=0.0)


@pytest.mark.parametrize("kwargs", [
    {"max_bins": 0},
    {"history": 0},
])
def test_histogram_rejects_bad_sizing(kwargs):
    with pytest.raises(ValueError):
        HistogramLoadPredictor(**kwargs)


def test_histogram_single_sample_history_is_finite():
    # One recorded interval must produce a well-defined probability in
    # [0, 1] — never a NaN target or a division by zero.
    predictor = HistogramLoadPredictor()
    predictor.record_use(1, 0.0)
    predictor.record_use(1, 10.0)  # exactly one interval (10s)
    p = predictor.probability_within(1, now=12.0, horizon=9.0)
    assert p == 1.0  # the single at-risk interval lands inside the horizon
    # Elapsed beyond every recorded interval: nothing at risk, probability 0.
    assert predictor.probability_within(1, now=25.0, horizon=5.0) == 0.0


def test_histogram_zero_width_interval_is_finite():
    # Two uses at the same timestamp record a zero-length interval — the
    # degenerate bin must not poison the hazard estimate with NaN.
    predictor = HistogramLoadPredictor()
    predictor.record_use(1, 5.0)
    predictor.record_use(1, 5.0)
    p = predictor.probability_within(1, now=5.0, horizon=1.0)
    assert p == 1.0 and not math.isnan(p)


def test_histogram_negative_horizon_is_zero():
    predictor = HistogramLoadPredictor()
    predictor.record_use(1, 0.0)
    predictor.record_use(1, 1.0)
    assert predictor.probability_within(1, now=1.5, horizon=-1.0) == 0.0


# --------------------------------------------------------------------- #
# ArrivalRateForecaster
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kwargs", [
    {"window": 0.0},
    {"window": -1.0},
    {"cycle": 0.0},
])
def test_forecaster_rejects_bad_config(kwargs):
    with pytest.raises(ValueError):
        ArrivalRateForecaster(**kwargs)


def test_forecaster_windowed_rate_is_hand_computable():
    forecaster = ArrivalRateForecaster(window=10.0)
    forecaster.observe(0.0, 1.0, 3)   # 3 arrivals over 1s
    forecaster.observe(1.0, 3.0, 5)   # 5 arrivals over 2s
    # 8 arrivals over 3 seconds of coverage.
    assert forecaster.observed_rate() == pytest.approx(8.0 / 3.0)


def test_forecaster_window_trims_old_buckets():
    forecaster = ArrivalRateForecaster(window=2.0)
    forecaster.observe(0.0, 1.0, 100)  # will age out
    forecaster.observe(1.0, 2.0, 4)
    forecaster.observe(2.0, 3.0, 4)   # newest end 3.0: bucket [0,1) trimmed
    assert forecaster.observed_rate() == pytest.approx(4.0)  # untrimmed: 36


def test_forecaster_zero_width_bucket_ignored():
    # A zero-width window carries no rate information — it must neither
    # crash (divide by zero) nor perturb the estimate.
    forecaster = ArrivalRateForecaster(window=10.0)
    forecaster.observe(0.0, 1.0, 5)
    forecaster.observe(1.0, 1.0, 7)
    assert forecaster.observed_rate() == pytest.approx(5.0)  # kept: 12
    with pytest.raises(ValueError):
        forecaster.observe(2.0, 1.0, 1)  # negative span is an error
    with pytest.raises(ValueError):
        forecaster.observe(2.0, 3.0, -1)  # negative count is an error


def test_forecaster_cold_start_is_zero_with_empty_band():
    forecast = ArrivalRateForecaster(window=10.0).forecast(0.0, 5.0)
    assert forecast.basis == "cold"
    assert forecast.rate == forecast.lower == forecast.upper == 0.0


def test_forecaster_single_sample_falls_back_to_observed_rate():
    # One bucket: no trend to fit, the point estimate is the current
    # observed rate and every value is finite (no NaN targets).
    forecaster = ArrivalRateForecaster(window=10.0)
    forecaster.observe(0.0, 1.0, 6)
    forecast = forecaster.forecast(1.0, 5.0)
    assert forecast.basis == "current"
    assert forecast.rate == pytest.approx(6.0)
    # Band half-width rate/sqrt(1): maximally wide at one sample.
    assert forecast.lower == pytest.approx(0.0)
    assert forecast.upper == pytest.approx(12.0)
    assert not math.isnan(forecast.rate)


def test_forecaster_band_widens_under_sparse_data():
    def halfwidth_with(n_buckets):
        forecaster = ArrivalRateForecaster(window=100.0)
        for i in range(n_buckets):
            forecaster.observe(float(i), float(i + 1), 6)
        forecast = forecaster.forecast(float(n_buckets), 2.0)
        return forecast.upper - forecast.rate

    # Same steady 6 RPS, sparser history -> wider band (rate / sqrt(n)).
    assert halfwidth_with(1) == pytest.approx(6.0)
    assert halfwidth_with(2) == pytest.approx(6.0 / math.sqrt(2))
    assert halfwidth_with(3) == pytest.approx(6.0 / math.sqrt(3))
    assert halfwidth_with(1) > halfwidth_with(2) > halfwidth_with(3)


def test_forecaster_trend_extrapolates_synthetic_ramp():
    # Rates 1, 2, 3, 4 over unit buckets: a perfect ramp of slope 1/s
    # through the bucket midpoints, so the OLS line is rate(t) = t + 0.5
    # and the residual band is exactly zero.
    forecaster = ArrivalRateForecaster(window=100.0)
    for i in range(4):
        forecaster.observe(float(i), float(i + 1), i + 1)
    forecast = forecaster.forecast(4.0, 2.0)
    assert forecast.basis == "trend"
    assert forecast.rate == pytest.approx(6.5)  # 0.5 + (4 + 2)
    assert forecast.lower == pytest.approx(6.5)
    assert forecast.upper == pytest.approx(6.5)


def test_forecaster_trend_band_is_one_residual_sd():
    # Rates 1, 3, 2, 4 at midpoints 0.5..3.5: the OLS line is
    # 0.9 + 0.8 t, the residuals -0.3, 0.9, -0.9, 0.3 (variance 0.45), so
    # the band half-width is 1 * sqrt(0.45) * sqrt(1 + 1/4) = 0.75.
    forecaster = ArrivalRateForecaster(window=100.0)
    for i, count in enumerate((1, 3, 2, 4)):
        forecaster.observe(float(i), float(i + 1), count)
    forecast = forecaster.forecast(4.0, 2.0)
    assert forecast.basis == "trend"
    assert forecast.rate == pytest.approx(5.7)  # 0.9 + 0.8 * 6
    assert forecast.upper - forecast.rate == pytest.approx(0.75)
    assert forecast.rate - forecast.lower == pytest.approx(0.75)


def test_forecaster_trend_clamps_to_zero_on_downward_ramp():
    forecaster = ArrivalRateForecaster(window=100.0)
    for i in range(4):
        forecaster.observe(float(i), float(i + 1), 4 - i)  # 4, 3, 2, 1
    forecast = forecaster.forecast(4.0, 20.0)  # extrapolates far below zero
    assert forecast.rate == 0.0
    assert forecast.lower == 0.0


def test_forecaster_seasonal_predicts_periodic_burst():
    # Cycle of 24s (one phase bin per second) with a burst in the first
    # second of each cycle.  After two cycles, a forecast targeting the
    # burst phase must see the burst rate even though the current window
    # is all lull.
    forecaster = ArrivalRateForecaster(window=6.0, cycle=24.0)
    for cycle_start in (0.0, 24.0):
        for i in range(24):
            count = 40 if i == 0 else 2
            forecaster.observe(cycle_start + i, cycle_start + i + 1, count)
    # At t=47 the trailing window is lull; target t=48 is phase 0 (burst).
    forecast = forecaster.forecast(47.0, 1.0)
    assert forecast.basis.endswith("+seasonal")
    assert forecast.rate == pytest.approx(40.0)
    # Targeting a lull phase stays at the lull rate.
    lull = forecaster.forecast(47.0, 4.0)  # t=51 -> phase 3
    assert lull.rate < 10.0


def test_forecaster_seasonal_band_reflects_bin_sparsity():
    # A seasonal estimate from a single bucket (one possibly-anomalous
    # spike) must carry a maximally wide band — lower bound zero — and
    # tighten as later cycles confirm the phase.
    forecaster = ArrivalRateForecaster(window=3.0, cycle=24.0)
    forecaster.observe(0.0, 1.0, 40)  # spike in phase bin 0, one cycle
    for i in range(1, 24):
        forecaster.observe(float(i), float(i + 1), 2)
    once = forecaster.forecast(23.0, 1.0)  # target t=24 -> phase bin 0
    assert once.basis.endswith("+seasonal")
    assert once.rate == pytest.approx(40.0)
    assert once.lower == 0.0  # one observation: no confidence at all
    # A second cycle confirming the burst halves-ish the relative width.
    forecaster.observe(24.0, 25.0, 40)
    for i in range(25, 48):
        forecaster.observe(float(i), float(i + 1), 2)
    twice = forecaster.forecast(47.0, 1.0)
    assert twice.rate == pytest.approx(40.0)
    assert twice.lower == pytest.approx(40.0 - 40.0 / math.sqrt(2))


def test_forecaster_seasonal_rate_is_phase_binned_mean():
    forecaster = ArrivalRateForecaster(window=10.0, cycle=24.0)
    forecaster.observe(0.0, 1.0, 10)    # phase bin 0
    forecaster.observe(24.0, 25.0, 20)  # phase bin 0 again, next cycle
    assert forecaster.seasonal_rate(0.5) == pytest.approx(15.0)  # (10+20)/2s
    assert forecaster.seasonal_rate(24.5) == pytest.approx(15.0)  # same phase
    assert forecaster.seasonal_rate(1.5) is None  # no history in that bin


def test_forecaster_negative_horizon_raises():
    forecaster = ArrivalRateForecaster(window=10.0)
    with pytest.raises(ValueError):
        forecaster.forecast(0.0, -1.0)
