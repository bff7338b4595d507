"""Output-length predictor with a configurable accuracy knob.

The paper uses µServe's BERT proxy model, measured at ~80% average accuracy,
and studies sensitivity by artificially setting accuracy to 100/80/60%
(§5.4.1).  We reproduce exactly that interface: with probability ``accuracy``
the prediction is (nearly) correct; otherwise it errs by a multiplicative
log-normal factor, which matches the long-tailed mistakes a length classifier
makes on conversational traffic.
"""

from __future__ import annotations

import numpy as np

from repro.workload.request import Request

#: Relative error of a "correct" prediction.
TOLERANCE = 0.1
#: Log-space spread of the multiplicative error on a miss.
MISS_SIGMA = 0.8


class OutputLengthPredictor:
    """Simulated BERT-proxy output-length predictor.

    Args:
        rng: Dedicated random stream (so accuracy changes do not perturb the
            workload itself).
        accuracy: Probability that a prediction is within :data:`TOLERANCE`
            of the truth.  1.0 gives an oracle.
    """

    def __init__(self, rng: np.random.Generator, accuracy: float = 0.8) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self.rng = rng
        self.accuracy = accuracy
        self._n_predictions = 0
        self._n_hits = 0

    def predict(self, request: Request) -> int:
        """Predict the output length of ``request`` (and record hit/miss)."""
        truth = request.output_tokens
        self._n_predictions += 1
        if self.accuracy >= 1.0 or self.rng.random() < self.accuracy:
            self._n_hits += 1
            if self.accuracy >= 1.0:
                return truth
            jitter = 1.0 + self.rng.uniform(-TOLERANCE, TOLERANCE)
            return max(1, int(round(truth * jitter)))
        factor = self.rng.lognormal(mean=0.0, sigma=MISS_SIGMA)
        # A miss is a genuine miss: push the factor out of the tolerance band
        # (rounding-safe margin of 2x tolerance on either side).
        if abs(factor - 1.0) < 2.0 * TOLERANCE:
            sign = 1.0 if factor >= 1.0 else -1.0
            factor = 1.0 + sign * 2.0 * TOLERANCE
        return max(1, int(round(truth * factor)))

    def annotate(self, request: Request) -> None:
        """Fill in ``request.predicted_output_tokens``."""
        request.predicted_output_tokens = self.predict(request)

    @property
    def observed_accuracy(self) -> float:
        """Fraction of predictions that were within tolerance so far."""
        if self._n_predictions == 0:
            return float("nan")
        return self._n_hits / self._n_predictions
