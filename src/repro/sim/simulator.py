"""Event heap and simulated clock.

The simulator is intentionally tiny: the serving engine drives almost all of
the logic, and only needs ``schedule`` / ``cancel`` / ``run``.  Events that
fire at the same simulated time are processed in scheduling order, which
keeps every run bit-for-bit reproducible.

Performance: the heap stores ``(time, seq, Event)`` triples, so ``heapq``
orders entries with C-level tuple comparisons instead of calling
``Event.__lt__`` (which must build two tuples per comparison).  ``run``
inlines the pop loop and drains same-timestamp bursts (a batch of finish
events, a wave of arrivals) in a tight inner loop without re-checking the
horizon — the first event at a timestamp already proved the burst is in
range.  Event order is untouched: everything still fires strictly by
``(time, seq)``.

A trace's arrivals are fed lazily (:meth:`Simulator.feed`): one pending
arrival at a time, so the heap grows with the fleet, not with the trace.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:
    from repro.workload.request import Request


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be cancelled
    with :meth:`Simulator.cancel`.  A cancelled event stays in the heap but is
    skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "popped")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple[Any, ...]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.popped = False  # no longer in the heap (fired or discarded)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, fn={name}, cancelled={self.cancelled})"


#: A heap entry: ``(time, seq, event)``.  Comparisons never reach the Event
#: (seq is unique), so heap maintenance stays in C.
_HeapEntry = tuple[float, int, Event]


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[_HeapEntry] = []
        self._seq = itertools.count()
        self._processed = 0
        self._cancelled = 0  # cancelled events still sitting in the heap

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live (not-yet-fired, not-cancelled) events in the heap.

        An active :meth:`feed` counts as one event, its next arrival: the
        rest of its trace is not in the heap yet.
        """
        return len(self._heap) - self._cancelled

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now ({self.now})")
        event = Event(time, next(self._seq), callback, args)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def feed(self, requests: Iterable[Request],
             callback: Callable[[Request], Any]) -> float:
        """Fire ``callback(request)`` at each request's arrival time.

        Returns the last arrival time (0.0 for an empty trace).  The whole
        trace is checked before anything is scheduled: a request that was
        already run, or one that arrives before ``now``, raises
        ``ValueError`` and leaves the simulator untouched.

        Only the next arrival sits in the heap.  When it fires it pushes
        the one after it, then calls ``callback``.  Arrivals fire in time
        order, ties in input order, and take a block of sequence numbers
        reserved here by their position in that order.  So an arrival ties
        with any other event at its timestamp exactly as if the whole trace
        had been scheduled now: after the events scheduled before this
        call, before the ones scheduled after it.  An empty trace reserves
        nothing.  Any iterable works: one that is not a list is read into
        a list once, and an out-of-order list is sorted into a new one.
        """
        # The workload package imports the hardware layer, which imports
        # this module.
        from repro.workload.request import RequestState

        arrivals = requests if isinstance(requests, list) else list(requests)
        for request in arrivals:
            if request.state is not RequestState.CREATED:
                raise ValueError(
                    f"request {request.request_id} was already run; "
                    "use Trace.fresh() to replay a trace")
        if not arrivals:
            return 0.0
        if any(a.arrival_time > b.arrival_time
               for a, b in itertools.pairwise(arrivals)):
            arrivals = sorted(arrivals, key=attrgetter("arrival_time"))
        start = arrivals[0].arrival_time
        if start < self.now:
            raise ValueError(f"cannot schedule at {start} < now ({self.now})")
        first = next(self._seq)
        self._seq = itertools.count(first + len(arrivals))
        seqs = itertools.count(first)
        upcoming = iter(arrivals)

        def push(request: Request) -> None:
            time, seq = request.arrival_time, next(seqs)
            event = Event(time, seq, arrive, (request,))
            heapq.heappush(self._heap, (time, seq, event))

        def arrive(request: Request) -> None:
            following = next(upcoming, None)
            if following is not None:
                push(following)
            callback(request)

        push(next(upcoming))
        return arrivals[-1].arrival_time

    def schedule_periodic(self, interval: float, callback: Callable[[], Any],
                          until: float) -> Optional[Event]:
        """Fire ``callback()`` every ``interval`` seconds, up to ``until``.

        The generalized self-rescheduling-closure idiom (metrics
        sampling, memory telemetry): each firing reschedules the next
        one, and the chain stops once the next firing would land past
        ``until`` — a bounded horizon is *required*, because an
        unconditionally rescheduling event would keep ``run()`` alive
        forever on runs that drain their heap naturally.

        Returns the first scheduled :class:`Event` (cancel it to stop
        the whole chain before it starts), or ``None`` when even the
        first firing would land past ``until``.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if self.now + interval > until:
            return None

        def _tick() -> None:
            callback()
            if self.now + interval <= until:
                self.schedule(interval, _tick)

        return self.schedule(interval, _tick)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice is harmless.

        Cancelled events are lazily skipped when popped; when they outnumber
        the live ones the heap is compacted in place, so callers that cancel
        frequently (autoscaler control loops, drain timers) cannot bloat the
        heap without bound.
        """
        if not event.cancelled:
            event.cancelled = True
            # An already-fired event is no longer in the heap: cancelling it
            # stays a no-op and must not skew the pending-event accounting.
            if not event.popped:
                self._cancelled += 1
                if self._cancelled > len(self._heap) - self._cancelled:
                    self._compact()

    def cancel_if(self, predicate: Callable[[Event], bool]) -> int:
        """Bulk-cancel every pending event matching ``predicate``.

        One pass over the heap, then a single compaction check — the
        per-event :meth:`cancel` path would re-test the compaction threshold
        (and potentially rebuild the heap) once per match.  Used by crash
        handling to drop a dead replica's pending finish events: a failed
        engine must not execute callbacks scheduled while it was alive.
        Returns the number of events cancelled.
        """
        cancelled = 0
        for _, _, event in self._heap:
            if not event.cancelled and predicate(event):
                event.cancelled = True
                cancelled += 1
        self._cancelled += cancelled
        if self._cancelled > len(self._heap) - self._cancelled:
            self._compact()
        return cancelled

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Ordering is untouched: entries sort totally by ``(time, seq)``, so a
        rebuilt heap pops in exactly the order the lazy-skip path would.
        Compaction mutates the list *in place* (slice assignment) because
        ``run`` keeps a local alias to it across event callbacks — rebinding
        ``self._heap`` to a fresh list would strand that alias on the old one
        and silently drop everything scheduled afterwards.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def step(self) -> bool:
        """Execute the next live event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events`` fire.

        When the run stops *naturally* — the heap drains, or the next live
        event lies past ``until`` — the clock is advanced to exactly
        ``until`` (when given), so time-based telemetry has a defined end
        point.  A ``max_events`` stop is different: it is a mid-flight pause
        (callers resume with another ``run``), so the clock stays at the
        last executed event and is *not* advanced to ``until``.
        """
        heap = self._heap
        heappop = heapq.heappop
        unlimited = max_events is None
        remaining = -1 if max_events is None else max_events
        executed = 0
        while heap:
            if not unlimited and executed >= remaining:
                return
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event.popped = True
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                break
            heappop(heap)
            event.popped = True
            self.now = time
            self._processed += 1
            executed += 1
            event.callback(*event.args)
            # Same-timestamp burst: every event at this exact time is already
            # inside the horizon, so fire the whole batch without re-testing
            # ``until``.  Strict (time, seq) order is preserved — events the
            # callbacks schedule at the same timestamp enter the heap with
            # higher seq and are picked up right here.
            while heap and heap[0][0] == time:
                if not unlimited and executed >= remaining:
                    return
                _, _, event = heappop(heap)
                event.popped = True
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._processed += 1
                executed += 1
                event.callback(*event.args)
        if until is not None and until > self.now:
            self.now = until
