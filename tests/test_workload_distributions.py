"""Tests for popularity and length distributions."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.workload.distributions import (
    bursty_arrival_times,
    poisson_arrival_times,
    sample_lognormal_lengths,
    zipf_weights,
)


@pytest.fixture
def rng():
    return RngStreams(42).get("test")


def test_zipf_weights_normalized_and_decreasing():
    w = zipf_weights(10, alpha=1.0)
    assert w.sum() == pytest.approx(1.0)
    assert all(w[i] >= w[i + 1] for i in range(9))


def test_zipf_alpha_zero_is_uniform():
    w = zipf_weights(5, alpha=0.0)
    assert np.allclose(w, 0.2)


def test_zipf_higher_alpha_more_skewed():
    flat = zipf_weights(100, alpha=0.5)
    steep = zipf_weights(100, alpha=2.0)
    assert steep[0] > flat[0]


def test_zipf_rejects_bad_args():
    with pytest.raises(ValueError):
        zipf_weights(0)
    with pytest.raises(ValueError):
        zipf_weights(5, alpha=-1.0)


def test_lognormal_lengths_hit_target_mean(rng):
    lengths = sample_lognormal_lengths(rng, mean=200.0, sigma=1.0, max_len=100000, size=50000)
    assert np.mean(lengths) == pytest.approx(200.0, rel=0.1)


def test_lognormal_lengths_clipped(rng):
    lengths = sample_lognormal_lengths(rng, mean=500.0, sigma=1.5, max_len=1024, size=5000)
    assert lengths.min() >= 1
    assert lengths.max() <= 1024
    assert lengths.dtype.kind == "i"


def test_lognormal_heavy_tail(rng):
    """Most requests short, a few very long (§3.3's observation)."""
    lengths = sample_lognormal_lengths(rng, mean=100.0, sigma=1.2, max_len=100000, size=20000)
    assert np.median(lengths) < np.mean(lengths)
    assert np.percentile(lengths, 99) > 5 * np.median(lengths)


def test_lognormal_rejects_bad_args(rng):
    with pytest.raises(ValueError):
        sample_lognormal_lengths(rng, mean=0.0, sigma=1.0, max_len=10, size=1)
    with pytest.raises(ValueError):
        sample_lognormal_lengths(rng, mean=10.0, sigma=1.0, max_len=0, size=1)


def test_poisson_rate_and_horizon(rng):
    times = poisson_arrival_times(rng, rate=10.0, duration=200.0)
    assert times.size == pytest.approx(2000, rel=0.1)
    assert times.max() < 200.0
    assert (np.diff(times) >= 0).all()


def test_poisson_rejects_bad_args(rng):
    with pytest.raises(ValueError):
        poisson_arrival_times(rng, rate=0.0, duration=10.0)
    with pytest.raises(ValueError):
        poisson_arrival_times(rng, rate=1.0, duration=0.0)


def test_bursty_preserves_mean_rate(rng):
    times = bursty_arrival_times(rng, rate=10.0, duration=600.0,
                                 burst_factor=3.0, burst_fraction=0.1, cycle=60.0)
    assert times.size == pytest.approx(6000, rel=0.1)


def test_bursty_is_actually_bursty(rng):
    times = bursty_arrival_times(rng, rate=10.0, duration=600.0,
                                 burst_factor=4.0, burst_fraction=0.1, cycle=60.0)
    in_burst = np.count_nonzero((times % 60.0) < 6.0)
    # 10% of each cycle carries ~4x the base rate: well above the 10% share.
    assert in_burst / times.size > 0.2


#: Burst shapes that would silently change the mean rate: with cycle 0, a
#: NaN cycle or a non-finite phase every candidate is thinned at the base
#: rate; a negative or infinite cycle keeps far too many.
BAD_BURST_SHAPES = [
    {"burst_factor": 0.5},
    {"burst_fraction": 1.0},
    {"cycle": 0},
    {"cycle": -120.0},
    {"cycle": float("nan")},
    {"cycle": float("inf")},
    {"phase": float("nan")},
    {"phase": float("inf")},
    {"phase": float("-inf")},
]


def test_bursty_rejects_bad_args(rng):
    for shape in BAD_BURST_SHAPES:
        with pytest.raises(ValueError, match=next(iter(shape))):
            bursty_arrival_times(rng, 10.0, 60.0, **shape)


@pytest.mark.parametrize("rate", [0.0, -3.0])
def test_bursty_reports_the_rate_it_was_given(rng, rate):
    """The error names the caller's rate, not the derived burst peak."""
    with pytest.raises(ValueError, match=f"rate must be positive, got {rate}$"):
        bursty_arrival_times(rng, rate, 60.0)
