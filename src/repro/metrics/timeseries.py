"""Windowed time-series metrics: throughput, goodput, batch occupancy.

Complements the percentile summaries with the over-time views used in the
timeline figures and in capacity diagnostics: how many requests complete per
window, how many of them met the SLO (goodput), and how full the continuous
batch ran.

All series share the same binning contract: points with ``time > horizon``
are **dropped** (they are outside the series being reported — clamping them
into the last bin would silently inflate the final window), while the exact
``time == horizon`` boundary stays in the last bin.  Binning and counting
run on preallocated numpy arrays (one ``bincount`` per series) rather than
per-request Python dict/object churn, so million-request traces summarize in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.workload.request import Request


@dataclass(frozen=True)
class WindowPoint:
    """One time-window's aggregate."""

    window_end: float
    value: float


def _n_bins(window: float, horizon: float) -> int:
    """Number of windows up to ``horizon``; every series validates here."""
    if not (window > 0 and horizon > 0):
        raise ValueError(
            f"window and horizon must be positive, got {window} and {horizon}")
    return max(1, int(np.ceil(horizon / window)))


def _bin_indices(times: np.ndarray, window: float, n_bins: int) -> np.ndarray:
    """Bin index per timestamp; the ``== horizon`` boundary lands in-bin.

    Callers have already dropped ``time > horizon`` points, so the only
    index reaching ``n_bins`` is the exact right edge — fold it into the
    last bin.
    """
    idx = (times / window).astype(np.intp)
    return np.minimum(idx, n_bins - 1)


def windowed_throughput(
    requests: Sequence[Request],
    window: float,
    horizon: float,
) -> list[WindowPoint]:
    """Completed requests per second, per window (by completion time).

    Completions after ``horizon`` are excluded (see module docstring).
    """
    n_bins = _n_bins(window, horizon)
    finishes = np.fromiter(
        (r.finish_time for r in requests
         if r.finish_time is not None and r.finish_time <= horizon),
        dtype=float,
    )
    counts = np.bincount(
        _bin_indices(finishes, window, n_bins), minlength=n_bins)
    return [
        WindowPoint(window_end=(i + 1) * window, value=counts[i] / window)
        for i in range(n_bins)
    ]


def windowed_goodput(
    requests: Sequence[Request],
    window: float,
    horizon: float,
    slo_ttft: float,
) -> list[WindowPoint]:
    """SLO-compliant completions per second, per window.

    Completions after ``horizon`` are excluded (see module docstring).
    """
    if slo_ttft <= 0:
        raise ValueError("slo_ttft must be positive")
    n_bins = _n_bins(window, horizon)
    finishes = np.fromiter(
        (r.finish_time for r in requests
         if r.finish_time is not None and r.first_token_time is not None
         and r.ttft <= slo_ttft and r.finish_time <= horizon),
        dtype=float,
    )
    counts = np.bincount(
        _bin_indices(finishes, window, n_bins), minlength=n_bins)
    return [
        WindowPoint(window_end=(i + 1) * window, value=counts[i] / window)
        for i in range(n_bins)
    ]


def batch_occupancy_series(
    samples: Sequence[tuple[float, int]],
    window: float,
    horizon: float,
) -> list[WindowPoint]:
    """Mean batch size per window, from the engine's occupancy samples.

    Enable recording with ``EngineConfig.record_batch_occupancy``; the engine
    then appends ``(time, batch_size)`` to ``engine.batch_occupancy`` at each
    iteration start.  Samples after ``horizon`` are excluded (see module
    docstring).
    """
    n_bins = _n_bins(window, horizon)
    kept = [(time, size) for time, size in samples if time <= horizon]
    times = np.fromiter(
        (time for time, _ in kept), dtype=float, count=len(kept))
    sizes = np.fromiter(
        (size for _, size in kept), dtype=float, count=len(kept))
    idx = _bin_indices(times, window, n_bins)
    sums = np.bincount(idx, weights=sizes, minlength=n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    return [
        WindowPoint(window_end=(i + 1) * window,
                    value=(sums[i] / counts[i]) if counts[i] else 0.0)
        for i in range(n_bins)
    ]


def peak_concurrency(requests: Sequence[Request]) -> int:
    """Maximum number of simultaneously-admitted requests over a run.

    Tie-break at equal timestamps: **arrivals are processed before
    departures**, so a request admitted at the exact instant another one
    finishes (a hand-off) counts as overlapping with it.  The alternative
    (departure first) would report a peak of 1 for a chain of back-to-back
    hand-offs, hiding the instant where the slot is doubly held.
    """
    n = sum(
        1 for r in requests
        if r.admit_time is not None and r.finish_time is not None)
    if n == 0:
        return 0
    times = np.empty(2 * n, dtype=float)
    deltas = np.empty(2 * n, dtype=np.intp)
    pos = 0
    for r in requests:
        if r.admit_time is None or r.finish_time is None:
            continue
        times[pos] = r.admit_time
        deltas[pos] = 1
        times[pos + 1] = r.finish_time
        deltas[pos + 1] = -1
        pos += 2
    # Sort by time; at equal times, +1 before -1 (lexsort: last key is the
    # primary one, and -deltas puts arrivals first).
    order = np.lexsort((-deltas, times))
    running = np.cumsum(deltas[order])
    return int(running.max(initial=0))
