"""Predictors: the output-length proxy model and load/arrival forecasters."""

from repro.predictor.output_length import OutputLengthPredictor
from repro.predictor.load_forecast import (
    ArrivalRateForecaster,
    HistogramLoadPredictor,
    RateForecast,
)

__all__ = [
    "OutputLengthPredictor",
    "HistogramLoadPredictor",
    "ArrivalRateForecaster",
    "RateForecast",
]
