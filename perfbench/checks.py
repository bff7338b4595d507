"""Output checks a replay must pass before it may produce a number.

* Request conservation: every generated request is accounted for exactly
  once, as finished, shed, lost or pending.
* Monotone stamps on every finished request:
  arrival <= enqueue <= admit <= adapter ready <= prefill start
  <= first token <= finish.
* A digest of every request's (first_token_time, finish_time, shed, lost),
  compared with the one recorded for the workload and seed.

:func:`tail_attribution` splits the TTFT of the slowest requests into five
parts read off the same stamps.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.workload.request import Request


class CheckFailed(Exception):
    """A replay produced output that fails a correctness check."""


def outcome(request: Request) -> str:
    if request.finished:
        return "finished"
    if request.shed:
        return "shed"
    if request.lost:
        return "lost"
    return "pending"


def check_conservation(generated: Sequence[Request],
                       accounted: Sequence[Request]) -> dict[str, int]:
    """Every generated request appears once in the system's accounting,
    in exactly one outcome.  Returns the count of each outcome."""
    ids = [id(r) for r in accounted]
    if len(set(ids)) != len(ids):
        raise CheckFailed("a request is accounted for more than once")
    if set(ids) != {id(r) for r in generated}:
        raise CheckFailed(
            f"{len(generated)} requests generated but the system accounts "
            f"for a different set of {len(accounted)}")
    counts = {"finished": 0, "shed": 0, "lost": 0, "pending": 0}
    for request in generated:
        flags = request.finished + request.shed + request.lost
        if flags > 1:
            raise CheckFailed(
                f"request {request.request_id} has {flags} outcomes")
        counts[outcome(request)] += 1
    return counts


_STAMPS = ("arrival_time", "enqueue_time", "admit_time", "adapter_ready_time",
           "prefill_start_time", "first_token_time", "finish_time")


def check_stamps(requests: Sequence[Request]) -> None:
    for request in requests:
        if not request.finished:
            continue
        stamps = [getattr(request, name) for name in _STAMPS]
        if any(s is None for s in stamps) or any(
                a > b for a, b in zip(stamps, stamps[1:])):
            raise CheckFailed(
                f"request {request.request_id} has non-monotone stamps "
                f"{dict(zip(_STAMPS, stamps))}")


def digest(requests: Sequence[Request]) -> str:
    """sha256 over every request's (first_token_time, finish_time, shed,
    lost), in request-id order, floats written exactly."""
    h = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.request_id):
        h.update(f"{r.request_id},{r.first_token_time!r},{r.finish_time!r},"
                 f"{int(r.shed)},{int(r.lost)}\n".encode())
    return h.hexdigest()


#: (name, start stamp, end stamp) of the five TTFT parts.
TTFT_PARTS = (
    ("dispatch_wait", "arrival_time", "enqueue_time"),
    ("engine_queue", "enqueue_time", "admit_time"),
    ("adapter_load", "admit_time", "adapter_ready_time"),
    ("prefill_wait", "adapter_ready_time", "prefill_start_time"),
    ("prefill", "prefill_start_time", "first_token_time"),
)


def tail_attribution(requests: Sequence[Request]) -> dict[str, float]:
    """Mean TTFT parts over the cohort with TTFT >= p99.

    Each part is reported as a percentage of the cohort's mean TTFT (the
    parts sum to 100), alongside the cohort size, its mean TTFT and how
    many of its requests were squashed.  ``adapter_load`` runs from the
    first admission to the adapter being ready; a squash clears the ready
    stamp but keeps the admission time, so for a squashed request it also
    holds the wait to be admitted again.

    The parts telescope from arrival to first token, which is exactly how
    ``Request.ttft`` is defined, so the sum check below holds by
    construction; it fails only if that definition changes.
    """
    done = [r for r in requests if r.finished]
    ttfts = np.array([r.ttft for r in done])
    cutoff = float(np.percentile(ttfts, 99))
    cohort = [r for r, t in zip(done, ttfts) if t >= cutoff]
    sums = dict.fromkeys((name for name, _, _ in TTFT_PARTS), 0.0)
    for r in cohort:
        total = 0.0
        for name, start, end in TTFT_PARTS:
            part = getattr(r, end) - getattr(r, start)
            sums[name] += part
            total += part
        if abs(total - r.ttft) > 1e-9 * max(1.0, r.ttft):
            raise CheckFailed(
                f"TTFT parts of request {r.request_id} sum to {total!r}, "
                f"not its TTFT {r.ttft!r}")
    mean_ttft = sum(r.ttft for r in cohort) / len(cohort)
    out = {"ttft.tail.requests": len(cohort), "ttft.tail.mean_s": mean_ttft,
           "ttft.tail.squashed": sum(1 for r in cohort if r.squash_count)}
    for name, total in sums.items():
        out[f"ttft.tail.{name}.pct"] = 100.0 * total / len(cohort) / mean_ttft
    return out
