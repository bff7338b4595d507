"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.simulator import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule_at(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert sim.processed_events == 0


def test_cancel_twice_is_harmless():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_execution():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_zero_delay_event_fires_at_now():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


# --------------------------------------------------------------------- #
# Heap hygiene: cancelled-event accounting and compaction
# --------------------------------------------------------------------- #
def test_pending_events_counts_live_only():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert sim.pending_events == 6
    sim.cancel(events[0])
    sim.cancel(events[1])
    assert sim.pending_events == 4
    sim.run()
    assert sim.pending_events == 0


def test_cancel_twice_counts_once():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 1


def test_compaction_evicts_cancelled_majority():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for event in events[:6]:
        sim.cancel(event)
    # Cancelled (6) outnumber live (4): the heap was compacted in place.
    assert len(sim._heap) == 4
    assert sim.pending_events == 4
    assert all(not entry[2].cancelled for entry in sim._heap)


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    events = {}
    for i in range(20):
        events[i] = sim.schedule(float(20 - i), fired.append, 20 - i)
    for i in range(0, 20, 2):
        sim.cancel(events[i])  # cancel every other one -> triggers compaction
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == 10


def test_cancel_interleaved_with_execution():
    sim = Simulator()
    fired = []
    keep = [sim.schedule(float(i + 1), fired.append, i) for i in range(8)]
    # Cancel half mid-run from inside an event callback.
    def cancel_rest():
        for event in keep[4:]:
            sim.cancel(event)
    sim.schedule(0.5, cancel_rest)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.pending_events == 0


def test_cancel_after_fire_keeps_accounting_intact():
    """Regression: cancelling an already-fired event must stay a no-op —
    it is not in the heap, so pending_events must not be decremented."""
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    sim.run()
    live = sim.schedule(2.0, lambda: None)
    sim.cancel(fired)
    sim.cancel(fired)
    assert sim.pending_events == 1
    sim.cancel(live)
    assert sim.pending_events == 0


# --------------------------------------------------------------------- #
# Bulk cancellation (cancel_if): crash handling drops a dead replica's
# pending events in one sweep
# --------------------------------------------------------------------- #
def test_cancel_if_cancels_matching_events_only():
    sim = Simulator()
    fired = []
    for i in range(8):
        sim.schedule(float(i + 1), fired.append, i)
    cancelled = sim.cancel_if(lambda event: event.args[0] % 2 == 0)
    assert cancelled == 4
    sim.run()
    assert fired == [1, 3, 5, 7]


def test_cancel_if_skips_already_cancelled():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    sim.cancel(events[0])
    assert sim.cancel_if(lambda event: True) == 3
    assert sim.pending_events == 0


def test_cancel_if_matches_bound_method_owner():
    # The exact predicate crash handling uses: events whose callback is a
    # bound method of the dead engine die with it, everything else lives.
    class Owner:
        def __init__(self):
            self.fired = []

        def hit(self):
            self.fired.append(True)

    sim = Simulator()
    dead, alive = Owner(), Owner()
    sim.schedule(1.0, dead.hit)
    sim.schedule(2.0, alive.hit)
    sim.schedule(3.0, dead.hit)
    count = sim.cancel_if(
        lambda event: getattr(event.callback, "__self__", None) is dead)
    assert count == 2
    sim.run()
    assert dead.fired == [] and alive.fired == [True]


def test_compaction_still_triggers_after_bulk_cancel():
    """Regression: cancel_if goes through the same cancelled-event
    accounting as cancel, so a bulk sweep that leaves cancelled entries in
    the majority compacts the heap (and later per-event cancels keep
    compacting) instead of bloating it."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.cancel_if(lambda event: event.time <= 6.0) == 6
    # Cancelled (6) outnumber live (4): compacted in place, one pass.
    assert len(sim._heap) == 4
    assert sim.pending_events == 4
    assert all(not entry[2].cancelled for entry in sim._heap)
    # The survivors still fire in order, and per-event cancellation after a
    # bulk sweep keeps the accounting exact.
    sim.cancel(events[6])
    fired = []
    sim.schedule(0.5, fired.append, 0)
    sim.run()
    assert fired == [0]
    assert sim.pending_events == 0
    assert sim.processed_events == 4  # 3 survivors + the late probe


def test_max_events_stop_does_not_advance_clock_to_until():
    """A max_events stop is a mid-flight pause: the clock stays at the last
    executed event so the caller can resume exactly where it left off.
    Only a natural stop (heap drained, or next event past the horizon)
    advances the clock to ``until``."""
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(until=100.0, max_events=3)
    assert fired == [0, 1, 2]
    assert sim.now == 3.0  # NOT advanced to until=100
    # Resuming picks up the remaining events, and the natural stop then
    # advances the clock to the horizon.
    sim.run(until=100.0)
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 100.0


def test_max_events_stop_mid_burst_preserves_order():
    """max_events can split a same-timestamp burst across two runs without
    reordering or dropping events."""
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.schedule(1.0, fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]
    assert sim.now == 1.0
    sim.run()
    assert fired == [0, 1, 2, 3]
