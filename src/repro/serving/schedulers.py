"""Baseline scheduling policies: FIFO and (speculative) SJF.

Both are *non-preemptive iteration-level* schedulers: at every engine
iteration, ``select`` gets a chance to admit waiting requests into the
continuous batch.  FIFO stops at the first request that does not fit — that
strict head-of-line behaviour is exactly what produces the paper's §3.3
blocking effect.  SJF (µServe-style) orders by the *predicted* output length
with an optional linear aging term.

The Chameleon multi-level-queue scheduler lives in :mod:`repro.core.mlq` and
implements the same interface.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Iterable

from repro.serving.admission import AdmissionContext, AdmitResult
from repro.workload.request import Request


class Scheduler(abc.ABC):
    """Interface every scheduling policy implements."""

    #: Whether this policy consumes ``predicted_output_tokens``.
    needs_predictions: bool = False

    @abc.abstractmethod
    def enqueue(self, request: Request, now: float) -> None:
        """Accept a newly-arrived request."""

    @abc.abstractmethod
    def requeue_front(self, request: Request, now: float) -> None:
        """Re-admit a squashed request at the front of its queue."""

    @abc.abstractmethod
    def select(self, ctx: AdmissionContext) -> None:
        """Admit requests for this iteration via ``ctx.try_admit``."""

    @abc.abstractmethod
    def queued_requests(self) -> Iterable[Request]:
        """The requests currently waiting (order unspecified)."""

    @abc.abstractmethod
    def drain(self) -> list[Request]:
        """Remove and return every queued request (in queue order).

        Used by replica-failure evacuation: a dead replica's local queue is
        migrated back to the cluster dispatcher, so the scheduler must give
        the requests up rather than hold them forever.
        """

    def queue_len(self) -> int:
        return sum(1 for _ in self.queued_requests())

    def queued_adapter_ids(self) -> set:
        """Adapters queued requests will need (for cache retention, §4.2.2)."""
        return {
            r.adapter_id for r in self.queued_requests() if r.adapter_id is not None
        }

    def on_finish(self, request: Request, now: float) -> None:
        """A previously-admitted request completed."""

    def on_schedule(self, now: float) -> None:
        """Called at the start of every scheduling round (refresh hooks)."""


class FifoScheduler(Scheduler):
    """Strict first-in-first-out admission (the S-LoRA default).

    The head of the queue blocks everything behind it: if the head cannot be
    admitted (memory, adapter room, batch cap), no younger request is tried.
    """

    def __init__(self) -> None:
        self._queue: deque[Request] = deque()

    def enqueue(self, request: Request, now: float) -> None:
        self._queue.append(request)

    def requeue_front(self, request: Request, now: float) -> None:
        self._queue.appendleft(request)

    def select(self, ctx: AdmissionContext) -> None:
        while self._queue:
            result = ctx.try_admit(self._queue[0])
            if result is not AdmitResult.ADMITTED:
                break
            self._queue.popleft()

    def queued_requests(self) -> Iterable[Request]:
        return list(self._queue)

    def drain(self) -> list[Request]:
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def queue_len(self) -> int:
        return len(self._queue)


class SjfScheduler(Scheduler):
    """Speculative shortest-job-first (µServe [46]).

    Waiting requests are served shortest predicted output first, so long
    requests can starve — the behaviour Figure 15/16 of the paper
    demonstrates.
    """

    needs_predictions = True

    def __init__(self) -> None:
        self._queue: list[Request] = []

    @staticmethod
    def _priority(request: Request) -> int:
        predicted = request.predicted_output_tokens
        if predicted is None:
            raise RuntimeError("SJF requires output-length predictions")
        return predicted

    def enqueue(self, request: Request, now: float) -> None:
        self._queue.append(request)

    def requeue_front(self, request: Request, now: float) -> None:
        self._queue.append(request)  # order is recomputed every round anyway

    def select(self, ctx: AdmissionContext) -> None:
        self._queue.sort(key=self._priority)
        admitted = []
        for request in self._queue:
            result = ctx.try_admit(request)
            if result is not AdmitResult.ADMITTED:
                break
            admitted.append(request)
        if admitted:
            taken = set(id(r) for r in admitted)
            self._queue = [r for r in self._queue if id(r) not in taken]

    def queued_requests(self) -> Iterable[Request]:
        return list(self._queue)

    def drain(self) -> list[Request]:
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def queue_len(self) -> int:
        return len(self._queue)
