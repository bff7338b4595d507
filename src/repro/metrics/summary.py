"""Latency summaries over finished requests.

Implements every metric the paper reports: TTFT (P50/P99), TBT (P99 over
inter-token gaps), E2E latency, per-request slowdown vs. isolated execution
(Figure 8), windowed P99-over-time series (Figures 15/19), SLO attainment and
throughput-under-SLO (the load where the P99-TTFT curve crosses the SLO,
which yields the paper's 1.5x headline from Figure 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.llm.costmodel import CostModel
from repro.workload.request import Request, RequestState

FINISHED = RequestState.FINISHED


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]); NaN for an empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def weighted_percentile(values: np.ndarray, counts: np.ndarray,
                        q: float) -> float:
    """``percentile(np.repeat(values, counts), q)`` without the repeat.

    numpy's default ("linear") method, step for step: the virtual index
    ``(n-1)*q/100`` into the sorted multiset of ``n`` values, then numpy's
    interpolation between its two neighbours, which computes from the upper
    one when the fraction is at least one half.  The result is
    bit-identical.  ``counts`` are positive integers.
    """
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    if values.size == 0:
        return float("nan")
    order = np.argsort(values)
    values = values[order]
    ends = np.cumsum(counts[order])  # one past each value's last position
    n = int(ends[-1])
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        # numpy reads the last value (index -1) on both sides, and its
        # fraction is measured from that -1.
        below = above = n - 1
        t = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        t = virtual - below
    a, b = values[np.searchsorted(ends, [below, above], side="right")]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def tbt_percentile(requests: Sequence[Request], q: float) -> float:
    """The q-th percentile of the requests' inter-token gaps (TBT samples).

    Equal, bit for bit, to ``percentile`` over every request's adjacent
    token-time differences pooled, but never holds a gap per token.  An
    engine's requests view runs of one list of iteration end times (see
    :class:`StepView`), so each gap of that step list is weighted by how
    many requests cover it, counted with a difference array over their
    start and stop steps.  A hand-assigned list is its own step list.
    """
    runs: dict[int, tuple[Sequence[float], list[int], list[int]]] = {}
    for r in requests:
        times = r.token_times
        steps, start, stop = times.steps, times.start, times.stop
        if stop - start < 2:
            continue
        run = runs.get(id(steps))
        if run is None:
            run = runs[id(steps)] = (steps, [], [])
        run[1].append(start)
        run[2].append(stop - 1)  # one past the last gap it covers
    values, counts = [], []
    for steps, starts, ends in runs.values():
        times = np.asarray(steps, dtype=float)
        n = times.size
        cover = np.cumsum(np.bincount(starts, minlength=n)
                          - np.bincount(ends, minlength=n))[:-1]
        covered = cover > 0
        values.append((times[1:] - times[:-1])[covered])
        counts.append(cover[covered])
    if not values:
        return float("nan")
    return weighted_percentile(np.concatenate(values), np.concatenate(counts), q)


@dataclass
class RunSummary:
    """Aggregate statistics of one simulation run."""

    n_requests: int
    p50_ttft: float
    p99_ttft: float
    mean_ttft: float
    p50_e2e: float
    p99_e2e: float
    p99_tbt: float
    mean_queueing_delay: float
    completed_rps: float
    slo_ttft: Optional[float] = None
    slo_attainment: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def meets_slo(self) -> Optional[bool]:
        if self.slo_ttft is None:
            return None
        return bool(self.p99_ttft <= self.slo_ttft)


def finished_only(requests: Sequence[Request]) -> list[Request]:
    return [r for r in requests if r.state is FINISHED]


def split_arrivals(requests: Sequence[Request],
                   warmup: float = 0.0) -> tuple[list[Request], list[Request]]:
    """The requests arriving at or after ``warmup``, and the finished ones
    among them, both in request order, from one pass."""
    arrivals: list[Request] = []
    done: list[Request] = []
    for r in requests:
        if r.arrival_time >= warmup:
            arrivals.append(r)
            if r.state is FINISHED:
                done.append(r)
    return arrivals, done


def summarize_run(
    requests: Sequence[Request],
    duration: Optional[float] = None,
    slo_ttft: Optional[float] = None,
    warmup: float = 0.0,
) -> RunSummary:
    """Summarize a run; requests arriving before ``warmup`` are excluded."""
    done = [r for r in requests
            if r.state is FINISHED and r.arrival_time >= warmup]
    if not done:
        nan = float("nan")
        return RunSummary(0, nan, nan, nan, nan, nan, nan, nan, 0.0, slo_ttft, None)
    n = len(done)
    ttfts = np.fromiter((r.ttft for r in done), dtype=float, count=n)
    e2es = np.fromiter((r.e2e_latency for r in done), dtype=float, count=n)
    qdelays = np.fromiter(
        (r.queueing_delay for r in done if r.admit_time is not None),
        dtype=float,
    )
    span = duration if duration is not None else max(r.finish_time for r in done)
    attainment = None
    if slo_ttft is not None:
        attainment = float(np.mean(ttfts <= slo_ttft))
    return RunSummary(
        n_requests=len(done),
        p50_ttft=percentile(ttfts, 50),
        p99_ttft=percentile(ttfts, 99),
        mean_ttft=float(np.mean(ttfts)),
        p50_e2e=percentile(e2es, 50),
        p99_e2e=percentile(e2es, 99),
        p99_tbt=tbt_percentile(done, 99),
        mean_queueing_delay=float(np.mean(qdelays)) if qdelays.size else float("nan"),
        completed_rps=len(done) / span if span > 0 else 0.0,
        slo_ttft=slo_ttft,
        slo_attainment=attainment,
    )


def _n_bins(window: float, horizon: float) -> int:
    """Number of windows up to ``horizon``; both must be positive."""
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


def windowed_p99_ttft(
    requests: Sequence[Request],
    window: float,
    horizon: float,
) -> list[tuple[float, float]]:
    """(window_end, P99 TTFT of requests arriving in the window) series.

    Binned by arrival time: arrivals after ``horizon`` are dropped (they
    are outside the series; clamping them into the last window would
    inflate it), and one exactly at ``horizon`` lands in the last window.
    """
    done = [r for r in finished_only(requests) if r.arrival_time <= horizon]
    n_bins = _n_bins(window, horizon)
    arrivals = np.fromiter(
        (r.arrival_time for r in done), dtype=float, count=len(done))
    bins: list[list[float]] = [[] for _ in range(n_bins)]
    for idx, r in zip(_bin_indices(arrivals, window, n_bins).tolist(), done):
        bins[idx].append(r.ttft)
    return [
        ((i + 1) * window, percentile(vals, 99))
        for i, vals in enumerate(bins)
        if vals
    ]


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means the values are perfectly even; ``1/n`` means one member holds
    everything.  Values must be non-negative (they are shares: per-tenant
    attainment, goodput, ...).  All-zero inputs are perfectly even (1.0);
    empty input is NaN.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    if np.any(arr < 0):
        raise ValueError("fairness is defined over non-negative shares")
    square_sum = float(np.sum(arr * arr))
    if square_sum == 0.0:
        return 1.0
    return float(np.sum(arr)) ** 2 / (arr.size * square_sum)


def tenant_breakdown(
    requests: Sequence[Request],
    warmup: float = 0.0,
    attained: Optional[Callable[[Request], bool]] = None,
) -> dict:
    """Per-tenant outcome counts over post-warmup arrivals.

    Returns parallel lists keyed by ``tenant_ids`` (sorted; the anonymous
    ``None`` tenant, if present, last): arrivals, completions, shed, lost,
    and attainment — deadline-compliant completions per arrival when an
    ``attained`` predicate is given (shed/unfinished count against it,
    matching ``cluster_slo_attainment``), plain completion ratio otherwise.
    """
    by_tenant: dict = {}
    for r in requests:
        if r.arrival_time >= warmup:
            by_tenant.setdefault(r.tenant_id, []).append(r)
    tenant_ids = sorted(
        (t for t in by_tenant if t is not None)) + (
        [None] if None in by_tenant else [])
    counts = {"arrivals": [], "completed": [], "shed": [], "lost": [],
              "attainment": []}
    for tenant in tenant_ids:
        mine = by_tenant[tenant]
        done = [r for r in mine if r.state is FINISHED]
        good = [r for r in done if attained(r)] if attained is not None \
            else done
        counts["arrivals"].append(len(mine))
        counts["completed"].append(len(done))
        counts["shed"].append(sum(1 for r in mine if r.shed))
        counts["lost"].append(sum(1 for r in mine if r.lost))
        counts["attainment"].append(
            len(good) / len(mine) if mine else float("nan"))
    return {"tenant_ids": tenant_ids, **counts}


def tenant_block(
    extra: dict,
    requests: Sequence[Request],
    shard_books: Sequence[Mapping],
    warmup: float = 0.0,
    attained: Optional[Callable[[Request], bool]] = None,
) -> None:
    """Write the per-tenant fairness accounting into ``extra``.

    ``shard_books`` holds one ``tenant id -> TenantBook`` map per
    dispatcher (a bare system passes its one map).  A tenant's quota
    columns sum its books over every shard: spill and steal move work
    between shards, so only the merged view is conserved.  All lists are
    parallel to ``tenant_ids`` (sorted, the anonymous ``None`` tenant
    last).  ``tenant_attainment`` counts shed and unfinished requests
    against the tenant (see :func:`tenant_breakdown`); its spread (max -
    min) and Jain index are the fairness headline, and the quota columns
    expose how hard the token buckets worked (throttle visits,
    borrow-from-idle admissions).
    """
    breakdown = tenant_breakdown(requests, warmup=warmup, attained=attained)
    tenant_ids = breakdown["tenant_ids"]
    throttles, borrows, virtual_times, weights = [], [], [], []
    for tenant in tenant_ids:
        throttled = borrowed = 0
        virtual_time, weight = 0.0, 1.0
        for books in shard_books:
            book = books.get(tenant)
            if book is not None:
                throttled += book.throttled
                borrowed += book.borrowed
                virtual_time += book.virtual_time
                weight = book.weight  # identical on every shard
        throttles.append(throttled)
        borrows.append(borrowed)
        virtual_times.append(virtual_time)
        weights.append(weight)
    attainment = [a for a in breakdown["attainment"]
                  if a == a]  # drop NaN lanes (no post-warmup arrivals)
    extra.update(
        tenant_ids=tenant_ids,
        tenant_arrivals=breakdown["arrivals"],
        tenant_completed=breakdown["completed"],
        tenant_shed=breakdown["shed"],
        tenant_lost=breakdown["lost"],
        tenant_attainment=breakdown["attainment"],
        tenant_attainment_spread=(
            max(attainment) - min(attainment) if attainment
            else float("nan")),
        tenant_fairness_jain=jain_fairness_index(attainment),
        tenant_quota_throttles=throttles,
        tenant_quota_borrows=borrows,
        tenant_virtual_time=virtual_times,
        tenant_weights=weights,
    )


def slowdowns(
    requests: Sequence[Request],
    cost_model: CostModel,
    rank_of: Callable[[Request], Optional[int]],
    load_time_of: Callable[[Request], float],
) -> list[float]:
    """Per-request slowdown: observed E2E over isolated E2E (Figure 8)."""
    out = []
    for r in finished_only(requests):
        isolated = cost_model.isolated_request_time(
            r.input_tokens, r.output_tokens, rank_of(r), load_time_of(r)
        )
        out.append(r.e2e_latency / isolated)
    return out


def compute_slo(
    requests: Sequence[Request],
    cost_model: CostModel,
    rank_of: Callable[[Request], Optional[int]],
    load_time_of: Callable[[Request], float],
    multiplier: float = 5.0,
    sample_cap: int = 512,
) -> float:
    """The paper's SLO: ``multiplier`` x average isolated execution time (§5.1)."""
    sample = list(requests)[:sample_cap]
    if not sample:
        raise ValueError("cannot compute an SLO from an empty trace")
    isolated = [
        cost_model.isolated_request_time(
            r.input_tokens, r.output_tokens, rank_of(r), load_time_of(r)
        )
        for r in sample
    ]
    return multiplier * float(np.mean(isolated))


def throughput_under_slo(
    loads: Sequence[float],
    p99_ttfts: Sequence[float],
    slo: float,
) -> float:
    """Max sustainable load: where the P99-TTFT curve crosses the SLO.

    Linearly interpolates between the last compliant and the first violating
    load, matching how the paper reads throughput off Figure 11.  Returns the
    highest measured load if the SLO is never violated, and 0 if even the
    lowest load violates it.
    """
    if len(loads) != len(p99_ttfts) or not loads:
        raise ValueError("loads and p99_ttfts must be equal-length, non-empty")
    pairs = sorted(zip(loads, p99_ttfts))
    prev_load, prev_lat = None, None
    for load, lat in pairs:
        if np.isnan(lat):
            continue
        if lat > slo:
            if prev_load is None:
                return 0.0
            if lat == prev_lat:
                return prev_load
            frac = (slo - prev_lat) / (lat - prev_lat)
            return prev_load + frac * (load - prev_load)
        prev_load, prev_lat = load, lat
    return pairs[-1][0] if prev_load is not None else 0.0
